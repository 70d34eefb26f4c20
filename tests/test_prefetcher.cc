/** @file Unit tests for the L2 stream and L1 IP-stride prefetchers. */

#include <gtest/gtest.h>

#include "mem/prefetcher.hh"

using namespace zcomp;

namespace {

PrefetchConfig
defaultCfg()
{
    PrefetchConfig cfg;
    return cfg;
}

} // namespace

TEST(StreamPrefetcher, TrainsOnSequentialAccesses)
{
    StreamPrefetcher pf(defaultCfg());
    std::vector<Addr> out;
    Addr base = 0x10000;
    pf.onAccess(base, out);
    EXPECT_TRUE(out.empty());               // first touch: allocate
    pf.onAccess(base + 64, out);
    EXPECT_TRUE(out.empty());               // confidence building
    pf.onAccess(base + 128, out);
    EXPECT_FALSE(out.empty());              // trained
    // Prefetches run ahead of the demand stream.
    for (Addr a : out)
        EXPECT_GT(a, base + 128);
}

TEST(StreamPrefetcher, SequentialStreamStaysAhead)
{
    PrefetchConfig cfg = defaultCfg();
    StreamPrefetcher pf(cfg);
    std::vector<Addr> all;
    Addr base = 0x40000;
    for (int i = 0; i < 64; i++) {
        std::vector<Addr> out;
        pf.onAccess(base + static_cast<Addr>(i) * 64, out);
        all.insert(all.end(), out.begin(), out.end());
    }
    // Nearly every demand line (except the training prefix and the
    // distance tail) must have been prefetched exactly once.
    std::vector<Addr> sorted = all;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end())
        << "duplicate prefetches issued";
    int covered = 0;
    for (int i = 3; i < 64; i++) {
        Addr line = base + static_cast<Addr>(i) * 64;
        if (std::find(all.begin(), all.end(), line) != all.end())
            covered++;
    }
    EXPECT_GE(covered, 58);
}

TEST(StreamPrefetcher, CrossesPageBoundaries)
{
    StreamPrefetcher pf(defaultCfg());
    std::vector<Addr> all;
    Addr base = 0x100000 - 4 * 64;  // 4 lines before a 4 KiB boundary
    for (int i = 0; i < 16; i++) {
        std::vector<Addr> out;
        pf.onAccess(base + static_cast<Addr>(i) * 64, out);
        all.insert(all.end(), out.begin(), out.end());
    }
    // Lines beyond the page boundary must have been prefetched.
    int beyond = 0;
    for (Addr a : all) {
        if (a >= 0x100000)
            beyond++;
    }
    EXPECT_GT(beyond, 4);
}

TEST(StreamPrefetcher, DescendingStreams)
{
    StreamPrefetcher pf(defaultCfg());
    std::vector<Addr> all;
    Addr base = 0x80000;
    for (int i = 0; i < 16; i++) {
        std::vector<Addr> out;
        pf.onAccess(base - static_cast<Addr>(i) * 64, out);
        all.insert(all.end(), out.begin(), out.end());
    }
    EXPECT_FALSE(all.empty());
    for (Addr a : all)
        EXPECT_LT(a, base - 64);
}

TEST(StreamPrefetcher, RandomAccessesDoNotTrain)
{
    StreamPrefetcher pf(defaultCfg());
    std::vector<Addr> all;
    // Far-apart random-ish pages, never two sequential lines.
    Addr addrs[] = {0x10000, 0x50000, 0x20000, 0x90000,
                    0x30000, 0x70000, 0x15000, 0x85000};
    for (Addr a : addrs) {
        std::vector<Addr> out;
        pf.onAccess(a, out);
        all.insert(all.end(), out.begin(), out.end());
    }
    EXPECT_TRUE(all.empty());
}

TEST(StreamPrefetcher, TracksMultipleConcurrentStreams)
{
    StreamPrefetcher pf(defaultCfg());
    uint64_t covered = 0;
    // Interleave 4 streams, as partitioned ZCOMP chunks do.
    Addr bases[] = {0x100000, 0x200000, 0x300000, 0x400000};
    for (int i = 0; i < 32; i++) {
        for (Addr b : bases) {
            std::vector<Addr> out;
            pf.onAccess(b + static_cast<Addr>(i) * 64, out);
            covered += out.size();
        }
    }
    EXPECT_GT(covered, 4u * 20u);
}

TEST(StreamPrefetcher, DownwardStreamAtAddressZero)
{
    // Regression: a descending stream near address 0 used to compute
    // line - lineBytes on unsigned Addr, wrapping to huge bogus
    // prefetch addresses. The stream must clamp at line zero instead.
    StreamPrefetcher pf(defaultCfg());
    std::vector<Addr> all;
    Addr base = 0x100;
    for (int i = 0; i <= 4; i++) {
        std::vector<Addr> out;
        pf.onAccess(base - static_cast<Addr>(i) * 64, out);
        all.insert(all.end(), out.begin(), out.end());
    }
    EXPECT_FALSE(all.empty());  // the stream did train and issue
    for (Addr a : all) {
        EXPECT_LT(a, base);     // below the stream, like any
                                // descending prefetch
        EXPECT_LT(a, 0x1000u) << "wrapped past zero";
    }
}

TEST(IpStridePrefetcher, NegativeStrideClampsAtZero)
{
    // Regression: line + stride*i with a negative stride used to wrap
    // negative through the int64 -> Addr cast. Candidates below zero
    // must be dropped (and not counted as issued).
    IpStridePrefetcher pf;
    std::vector<Addr> out;
    pf.onAccess(9, 0x300, out);
    pf.onAccess(9, 0x200, out);     // stride -0x100, conf 1
    pf.onAccess(9, 0x100, out);     // conf 2 -> issue
    ASSERT_EQ(out.size(), 1u);      // 0x0 fits; -0x100 is clamped
    EXPECT_EQ(out[0], 0x0u);
    EXPECT_EQ(pf.issued(), out.size());
}

TEST(IpStridePrefetcher, StopsAtPageBoundary)
{
    // Large strides must stop at the 4 KiB page boundary like real
    // hardware (the next page's mapping is unknown); clamped
    // candidates are not counted as issued.
    IpStridePrefetcher pf;
    std::vector<Addr> out;
    pf.onAccess(11, 0x1000, out);
    pf.onAccess(11, 0x1400, out);   // stride +0x400, conf 1
    pf.onAccess(11, 0x1800, out);   // conf 2 -> issue
    ASSERT_EQ(out.size(), 1u);      // 0x1C00 fits; 0x2000 is the
                                    // next page
    EXPECT_EQ(out[0], 0x1C00u);
    EXPECT_EQ(pf.issued(), out.size());
}

TEST(IpStridePrefetcher, TableCollisionRetrains)
{
    // Two pcs that hash to the same table entry (69 % 64 == 5) must
    // evict each other instead of blending their strides into bogus
    // trained patterns.
    IpStridePrefetcher pf;
    std::vector<Addr> out;
    for (int i = 0; i < 8; i++) {
        pf.onAccess(5, 0x1000 + static_cast<Addr>(i) * 64, out);
        pf.onAccess(69, 0x9000 + static_cast<Addr>(i) * 128, out);
    }
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.issued(), 0u);
}

TEST(IpStridePrefetcher, DetectsStridedPattern)
{
    IpStridePrefetcher pf;
    std::vector<Addr> out;
    // Stride of 2 lines from one pc.
    pf.onAccess(7, 0x1000, out);
    pf.onAccess(7, 0x1080, out);
    EXPECT_TRUE(out.empty());
    pf.onAccess(7, 0x1100, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x1180u);
}

TEST(IpStridePrefetcher, SeparatePcsTrackSeparateStrides)
{
    IpStridePrefetcher pf;
    std::vector<Addr> out1, out2;
    for (int i = 0; i < 4; i++) {
        pf.onAccess(1, 0x1000 + static_cast<Addr>(i) * 64, out1);
        pf.onAccess(2, 0x8000 + static_cast<Addr>(i) * 128, out2);
    }
    EXPECT_FALSE(out1.empty());
    EXPECT_FALSE(out2.empty());
    for (Addr a : out1)
        EXPECT_LT(a, 0x8000u);
    for (Addr a : out2)
        EXPECT_GE(a, 0x8000u);
}

TEST(IpStridePrefetcher, ChangingStrideRetrains)
{
    IpStridePrefetcher pf;
    std::vector<Addr> out;
    pf.onAccess(3, 0x1000, out);
    pf.onAccess(3, 0x1040, out);
    pf.onAccess(3, 0x1080, out);    // trained at +64
    out.clear();
    pf.onAccess(3, 0x2000, out);    // stride break
    EXPECT_TRUE(out.empty());
    pf.onAccess(3, 0x2100, out);    // new stride +256, conf 1
    EXPECT_TRUE(out.empty());
    pf.onAccess(3, 0x2200, out);    // conf 2 -> issue
    EXPECT_FALSE(out.empty());
}

// ---------------------------------------------------------------------
// Differential test: StreamPrefetcher's one-pass table lookup against
// the four-lookup form it replaced (find the page, find the page below,
// find the page above, then allocate), kept here as the reference.
// ---------------------------------------------------------------------

#include <algorithm>

#include "common/rng.hh"

namespace {

class RefStreamPrefetcher
{
  public:
    explicit RefStreamPrefetcher(const PrefetchConfig &cfg)
        : cfg_(cfg), streams_(static_cast<size_t>(cfg.l2StreamTableSize))
    {}

    uint64_t issued() const { return issued_; }

    void
    onAccess(Addr line, std::vector<Addr> &out)
    {
        clock_++;
        Addr page = alignDown(line, pageBytes);
        Stream *s = find(page);
        if (!s) {
            Stream *prev =
                page >= pageBytes ? find(page - pageBytes) : nullptr;
            if (prev && prev->direction > 0 && prev->confidence > 0 &&
                line == prev->lastLine + lineBytes) {
                prev->page = page;
                s = prev;
            } else {
                Stream *next = find(page + pageBytes);
                if (next && next->direction < 0 && next->confidence > 0 &&
                    next->lastLine >= lineBytes &&
                    line == next->lastLine - lineBytes) {
                    next->page = page;
                    s = next;
                }
            }
        }
        if (!s) {
            s = allocate();
            *s = {true, page, line, line + lineBytes, 1, 0, clock_};
            return;
        }
        s->lastUse = clock_;
        int64_t delta = static_cast<int64_t>(line) -
                        static_cast<int64_t>(s->lastLine);
        if (delta == 0)
            return;
        int dir = delta > 0 ? 1 : -1;
        bool follows = dir == s->direction &&
                       (delta > 0 ? delta : -delta) <=
                           static_cast<int64_t>(2 * lineBytes);
        if (follows) {
            if (s->confidence < 4)
                s->confidence++;
        } else {
            s->direction = dir;
            s->confidence = 1;
            s->nextIssue = dir > 0 ? line + lineBytes
                                   : (line >= lineBytes ? line - lineBytes
                                                        : Addr(0));
        }
        s->lastLine = line;
        if (s->confidence < 2)
            return;
        Addr dist_bytes = static_cast<Addr>(cfg_.l2Distance) * lineBytes;
        if (s->direction > 0) {
            Addr limit = line + dist_bytes;
            if (s->nextIssue <= line)
                s->nextIssue = line + lineBytes;
            for (int i = 0; i < cfg_.l2Degree; i++) {
                if (s->nextIssue > limit)
                    break;
                out.push_back(s->nextIssue);
                issued_++;
                s->nextIssue += lineBytes;
            }
        } else {
            if (line < lineBytes)
                return;
            Addr limit = line > dist_bytes ? line - dist_bytes : Addr(0);
            if (s->nextIssue >= line)
                s->nextIssue = line - lineBytes;
            for (int i = 0; i < cfg_.l2Degree; i++) {
                if (s->nextIssue < limit)
                    break;
                out.push_back(s->nextIssue);
                issued_++;
                if (s->nextIssue < lineBytes)
                    break;
                s->nextIssue -= lineBytes;
            }
        }
    }

  private:
    struct Stream
    {
        bool valid = false;
        Addr page = 0;
        Addr lastLine = 0;
        Addr nextIssue = 0;
        int direction = 1;
        int confidence = 0;
        uint64_t lastUse = 0;
    };

    static constexpr uint64_t pageBytes = prefetchPageBytes;

    Stream *
    find(Addr page)
    {
        for (auto &s : streams_) {
            if (s.valid && s.page == page)
                return &s;
        }
        return nullptr;
    }

    Stream *
    allocate()
    {
        Stream *lru = &streams_[0];
        for (auto &s : streams_) {
            if (!s.valid)
                return &s;
            if (s.lastUse < lru->lastUse)
                lru = &s;
        }
        return lru;
    }

    PrefetchConfig cfg_;
    std::vector<Stream> streams_;
    uint64_t clock_ = 0;
    uint64_t issued_ = 0;
};

} // namespace

TEST(StreamPrefetcher, OnePassLookupMatchesReference)
{
    // Table size 4 is smaller than the number of live streams below,
    // so allocation keeps falling back to the least recently used.
    for (int table : {32, 4}) {
        SCOPED_TRACE(table);
        PrefetchConfig cfg;
        cfg.l2StreamTableSize = table;
        StreamPrefetcher dut(cfg);
        RefStreamPrefetcher ref(cfg);
        Rng rng(static_cast<uint64_t>(table));
        // Up and down streams that cross 4 KiB pages, interleaved with
        // random lines over a few neighbouring pages. up[2] steps one
        // line at a time from the top of the address space, wrapping
        // through page 0, which has no page below it.
        Addr up[3] = {0x100F00, 0x300000, 0xFFFFFFFFFFFFE000};
        Addr down[3] = {0x2000C0, 0x500040, 0x9100};
        uint64_t issued = 0;
        for (int i = 0; i < 20000; i++) {
            Addr line = 0;
            uint64_t pick = rng.below(8);
            if (pick < 3) {
                line = up[pick];
                up[pick] += lineBytes * (pick == 2 ? 1 : 1 + rng.below(2));
            } else if (pick < 6) {
                line = down[pick - 3];
                down[pick - 3] -= std::min<Addr>(down[pick - 3],
                                                 lineBytes *
                                                     (1 + rng.below(2)));
            } else {
                line = 0x700000 + rng.below(4 * prefetchPageBytes /
                                            lineBytes) * lineBytes;
            }
            std::vector<Addr> a, b;
            dut.onAccess(line, a);
            ref.onAccess(line, b);
            ASSERT_EQ(a, b) << "access " << i << " line 0x" << std::hex
                            << line;
            issued += a.size();
        }
        EXPECT_EQ(dut.issued(), ref.issued());
        EXPECT_GT(issued, 1000u);
    }
}
