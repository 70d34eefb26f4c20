/**
 * @file
 * Unit tests for the CompressionScheme list and the Figure 15
 * comparators: hand-computed EBPC/ZVC golden encodings, the EBPC
 * closed form against the plane-by-plane scan it replaced on every
 * backend, the zero-value schemes' histogram pass against their
 * per-line sum, list order and lookup misses, the 64-byte per-line clamp
 * on incompressible data, and the typed DecodeError on misaligned
 * snapshots.
 */

#include "cachecomp/scheme.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cachecomp/cache_model.hh"
#include "cachecomp/ebpc.hh"
#include "cachecomp/zvc.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "sim/network_sim.hh"

#include "codec_lines.hh"

using namespace zcomp;

namespace {

using Line = std::vector<uint8_t>;

Line
lineOf(const std::vector<float> &words)
{
    EXPECT_EQ(words.size(), 16u);
    Line line(64);
    std::memcpy(line.data(), words.data(), 64);
    return line;
}

Line
zeroLine()
{
    return lineOf(std::vector<float>(16, 0.0f));
}

Line
denseIdenticalLine()
{
    return lineOf(std::vector<float>(16, 1.0f));
}

/** 1.0, 0, 1.0, 0, ... - 8 nonzeros, 8 single-zero runs. */
Line
alternatingLine()
{
    std::vector<float> w(16, 0.0f);
    for (int i = 0; i < 16; i += 2)
        w[static_cast<size_t>(i)] = 1.0f;
    return lineOf(w);
}

/** Incompressible data: every word a full-entropy random bit
 *  pattern, no zeros, no shared planes. */
Line
randomDenseLine(uint64_t seed)
{
    Rng rng(seed);
    Line line(64);
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0;
        while (word == 0)
            word = static_cast<uint32_t>(rng.next64());
        std::memcpy(line.data() + w * 4, &word, 4);
    }
    return line;
}

std::vector<uint8_t>
randomSnapshot(size_t lines, uint64_t seed)
{
    std::vector<uint8_t> snap;
    snap.reserve(lines * 64);
    for (size_t l = 0; l < lines; l++) {
        Line line = randomDenseLine(seed + l);
        snap.insert(snap.end(), line.begin(), line.end());
    }
    return snap;
}

/**
 * EBPC bits of one line the way the codec model first computed them:
 * a zero-runlength walk, then a scan of all 32 delta planes over the
 * k-1 deltas. The oracle for ebpcLineBits(); it must not be "fixed"
 * to match it.
 */
int
refEbpcLineBits(const uint8_t *line)
{
    uint32_t words[16];
    std::memcpy(words, line, 64);
    uint32_t nonzeros[16];
    int k = 0;
    int bits = 0;
    for (int w = 0; w < 16;) {
        if (words[w] == 0) {
            while (w < 16 && words[w] == 0)
                w++;
            bits += 5;
        } else {
            bits += 1;
            nonzeros[k++] = words[w];
            w++;
        }
    }
    if (k > 0) {
        bits += 32;
        if (k > 1) {
            for (int plane = 0; plane < 32; plane++) {
                bool populated = false;
                for (int i = 1; i < k; i++) {
                    uint32_t delta = nonzeros[i] ^ nonzeros[i - 1];
                    if ((delta >> plane) & 1) {
                        populated = true;
                        break;
                    }
                }
                bits += populated ? 1 + (k - 1) : 1;
            }
        }
    }
    return bits;
}

} // namespace

// --- EBPC golden values (derivations in cachecomp/ebpc.hh) ---------

TEST(Ebpc, GoldenAllZero)
{
    // One 16-word zero run: 5 bits -> 1 byte.
    EXPECT_EQ(ebpcLineBytes(zeroLine().data()), 1);
}

TEST(Ebpc, GoldenDenseIdentical)
{
    // 16 keep flags + 32 verbatim + 32 empty planes = 80 bits.
    EXPECT_EQ(ebpcLineBytes(denseIdenticalLine().data()), 10);
}

TEST(Ebpc, GoldenAlternating)
{
    // 8 keep flags + 8 runs * 5 + 32 verbatim + 32 empty planes
    // = 112 bits.
    EXPECT_EQ(ebpcLineBytes(alternatingLine().data()), 14);
}

TEST(Ebpc, ClampsIncompressibleLine)
{
    // Full-entropy nonzeros populate every delta plane: 16 flags +
    // 32 + 32 * (1 + 15) bits >> 64 bytes, clamped to the line.
    EXPECT_EQ(ebpcLineBytes(randomDenseLine(7).data()), 64);
}

// --- EBPC closed form vs the plane scan, on every backend ----------

TEST(EbpcDiff, ClosedFormMatchesPlaneScan)
{
    using namespace codec_lines;
    BackendGuard guard;
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        uint64_t seed = 1;
        for (Kind kind : allKinds) {
            for (double sparsity : {0.0, 0.3, 0.5, 0.9, 1.0}) {
                std::vector<uint8_t> lines =
                    makeLines(256, kind, sparsity, seed++);
                for (size_t off = 0; off < lines.size(); off += 64) {
                    const uint8_t *line = lines.data() + off;
                    const int want = refEbpcLineBits(line);
                    ASSERT_EQ(ebpcLineBits(line), want)
                        << simd::backendName(b) << " " << kindName(kind)
                        << " sparsity " << sparsity << " line "
                        << off / 64;
                    ASSERT_EQ(ebpcLineBytes(line),
                              std::min(64, (want + 7) / 8));
                }
            }
        }
    }
}

TEST(EbpcDiff, EveryZeroPatternMatchesPlaneScan)
{
    // All 2^16 zero-word masks: every run structure and every nonzero
    // count k, including k = 0, 1 and 16. Nonzeros alternate between
    // random words and repeats of the previous one (empty deltas).
    using namespace codec_lines;
    BackendGuard guard;
    Rng rng(97);
    std::vector<uint8_t> lines(size_t{1} << 22);
    for (uint32_t mask = 0; mask < (1u << 16); mask++) {
        uint32_t prev = 1;
        for (int w = 0; w < 16; w++) {
            uint32_t word = 0;
            if ((mask >> w) & 1) {
                word = rng.chance(0.3) ? prev
                                       : static_cast<uint32_t>(
                                             rng.next64()) | 1u;
                prev = word;
            }
            std::memcpy(lines.data() + mask * 64 + w * 4, &word, 4);
        }
    }
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        for (uint32_t mask = 0; mask < (1u << 16); mask++) {
            const uint8_t *line = lines.data() + mask * 64;
            ASSERT_EQ(ebpcLineBits(line), refEbpcLineBits(line))
                << simd::backendName(b) << " nonzero mask 0x" << std::hex
                << mask;
        }
    }
}

// --- Zero-value schemes: one histogram pass vs the per-line sum -----

TEST(ZeroValueDiff, HistogramRatioMatchesPerLineSum)
{
    // The per-line sum is the default snapshotRatio() the histogram
    // pass replaced for avx512-comp, zcomp and zvc; line-aligned and
    // 1- and 4-byte shifted buffers.
    using namespace codec_lines;
    BackendGuard guard;
    for (simd::Backend b : supportedBackends()) {
        simd::setBackend(b);
        uint64_t seed = 1;
        for (Kind kind : allKinds) {
            for (double sparsity : {0.0, 0.3, 0.5, 0.9, 1.0}) {
                for (size_t lines : {1, 3, 4, 5, 17, 259}) {
                    for (size_t shift : {0, 1, 4}) {
                        const std::vector<uint8_t> raw =
                            makeLines(lines + 1, kind, sparsity, seed++);
                        const uint8_t *data = raw.data() + shift;
                        const size_t bytes = lines * 64;
                        uint64_t hist[17] = {}, want_hist[17] = {};
                        for (size_t l = 0; l < lines; l++)
                            want_hist[lineNonzeroWords(data + l * 64)]++;
                        if (simd::nonzeroWordHistogram(data, lines, hist)) {
                            for (int k = 0; k <= 16; k++)
                                ASSERT_EQ(hist[k], want_hist[k])
                                    << simd::backendName(b) << " k " << k;
                        }
                        for (const CompressionScheme *s : allSchemes()) {
                            if (!dynamic_cast<const ZeroValueScheme *>(s))
                                continue;
                            uint64_t sum = 0;
                            for (size_t l = 0; l < lines; l++)
                                sum += static_cast<uint64_t>(
                                    s->lineBytes(data + l * 64));
                            ASSERT_EQ(s->snapshotRatio(data, bytes),
                                      static_cast<double>(bytes) /
                                          static_cast<double>(sum))
                                << simd::backendName(b) << " " << s->name()
                                << " " << kindName(kind) << " sparsity "
                                << sparsity << " lines " << lines
                                << " shift " << shift;
                        }
                    }
                }
            }
        }
    }
}

TEST(ZeroValueDiff, SchemesSizeByNonzeroCount)
{
    // -0.0f is a nonzero word: sizing reads raw bits, as EQZ does.
    const CompressionScheme *zcomp = schemeByName("zcomp");
    const CompressionScheme *avx = schemeByName("avx512-comp");
    const CompressionScheme *zvc = schemeByName("zvc");
    for (int k = 0; k <= 16; k++) {
        std::vector<float> words(16, 0.0f);
        for (int w = 0; w < k; w++)
            words[static_cast<size_t>(15 - w)] = -0.0f;  // 0x80000000
        const Line line = lineOf(words);
        EXPECT_EQ(lineNonzeroWords(line.data()), k);
        EXPECT_EQ(zcomp->lineBytes(line.data()), std::min(64, 2 + 4 * k));
        EXPECT_EQ(avx->lineBytes(line.data()), std::min(64, 2 + 4 * k));
        EXPECT_EQ(zvc->lineBytes(line.data()),
                  std::min(64, (2 + 4 * k + 7) / 8 * 8));
    }
}

// --- ZVC golden values (derivation in cachecomp/zvc.hh) ------------

TEST(Zvc, GoldenAllZero)
{
    // 2 mask bytes padded to the 8-byte DMA beat.
    EXPECT_EQ(zvcLineBytes(zeroLine().data()), 8);
}

TEST(Zvc, GoldenDense)
{
    // 2 + 64 payload bytes -> 72 after padding, clamped to 64.
    EXPECT_EQ(zvcLineBytes(denseIdenticalLine().data()), 64);
}

TEST(Zvc, GoldenAlternating)
{
    // 2 + 8 * 4 = 34 bytes -> one 40-byte burst.
    EXPECT_EQ(zvcLineBytes(alternatingLine().data()), 40);
}

TEST(Zvc, PadsToBurstBeat)
{
    std::vector<float> w(16, 0.0f);
    w[3] = 2.5f;    // 2 + 4 = 6 bytes -> one 8-byte beat
    EXPECT_EQ(zvcLineBytes(lineOf(w).data()), 8);
}

// --- Scheme list ---------------------------------------------------

TEST(SchemeRegistry, OrderIsStableAndComplete)
{
    const std::vector<const char *> expected = {
        "uncompressed", "avx512-comp", "zcomp", "limitcc",
        "twotagcc", "ebpc", "zvc"};
    const auto &schemes = allSchemes();
    ASSERT_EQ(schemes.size(), expected.size());
    for (size_t i = 0; i < expected.size(); i++)
        EXPECT_STREQ(schemes[i]->name(), expected[i]) << "index " << i;

    // Repeated calls return the identical sequence (same singletons,
    // same order) - the determinism the report/cache keys rely on.
    const auto &again = allSchemes();
    ASSERT_EQ(again.size(), schemes.size());
    for (size_t i = 0; i < schemes.size(); i++)
        EXPECT_EQ(again[i], schemes[i]);
}

TEST(SchemeRegistry, ByNameHitAndMiss)
{
    for (const CompressionScheme *s : allSchemes())
        EXPECT_EQ(schemeByName(s->name()), s);
    EXPECT_EQ(schemeByName("no-such-scheme"), nullptr);
    EXPECT_EQ(schemeByName(""), nullptr);
    EXPECT_EQ(schemeByName("ZCOMP"), nullptr);  // names are exact
}

TEST(SchemeRegistry, UncompressedIsIdentity)
{
    const CompressionScheme *u = schemeByName("uncompressed");
    ASSERT_NE(u, nullptr);
    EXPECT_EQ(u->lineBytes(zeroLine().data()), 64);
    EXPECT_EQ(u->lineBytes(randomDenseLine(3).data()), 64);
    std::vector<uint8_t> snap = randomSnapshot(8, 11);
    EXPECT_DOUBLE_EQ(u->snapshotRatio(snap.data(), snap.size()), 1.0);
}

// --- 64-byte clamp: no ratio below 1 on incompressible data --------

TEST(SchemeClamp, NoSchemeExpandsIncompressibleData)
{
    std::vector<uint8_t> snap = randomSnapshot(256, 23);
    for (const CompressionScheme *s : allSchemes()) {
        EXPECT_GE(s->snapshotRatio(snap.data(), snap.size()), 1.0)
            << s->name();
        for (size_t off = 0; off < snap.size(); off += 64) {
            int sz = s->lineBytes(snap.data() + off);
            ASSERT_GE(sz, 1) << s->name();
            ASSERT_LE(sz, 64) << s->name();
        }
    }
}

TEST(SchemeClamp, CacheModelRatiosAtLeastOneOnRandomData)
{
    // The ISSUE 9 regression: FPC-D can expand incompressible lines,
    // and the unclamped models let that deflate limitCC below 1 and
    // wedge TwoTagCC pending slots past any partner.
    std::vector<uint8_t> snap = randomSnapshot(512, 41);
    CompRatios r = analyzeSnapshot(snap.data(), snap.size());
    EXPECT_GE(r.zcomp, 1.0);
    EXPECT_GE(r.limitCC, 1.0);
    EXPECT_GE(r.twoTagCC, 1.0);
}

// --- Misaligned snapshots raise typed DecodeError ------------------

TEST(SchemeDecode, MisalignedSnapshotThrowsDecodeError)
{
    resetDecodeErrorCount();
    std::vector<uint8_t> snap(65, 0);   // cut off mid-line
    uint64_t thrown = 0;
    for (const CompressionScheme *s : allSchemes()) {
        EXPECT_THROW(s->snapshotRatio(snap.data(), snap.size()),
                     DecodeError)
            << s->name();
        thrown++;
    }
    EXPECT_THROW(zcompSnapshotRatio(snap.data(), snap.size()),
                 DecodeError);
    EXPECT_THROW(limitCCRatio(snap.data(), snap.size()), DecodeError);
    EXPECT_THROW(twoTagCCRatio(snap.data(), snap.size()), DecodeError);
    EXPECT_THROW(analyzeSnapshot(snap.data(), snap.size()),
                 DecodeError);
    // Every detection is observable in the global counter.
    EXPECT_EQ(decodeErrorCount(), thrown + 4);
    resetDecodeErrorCount();
}

// --- IoPolicy names ------------------------------------------------

using IoPolicyNameDeathTest = ::testing::Test;

TEST(IoPolicyNameDeathTest, PanicsOnOutOfRangeValue)
{
    // Formerly returned "?" - which flowed into report rows and
    // result-cache keys, colliding distinct invalid policies on one
    // cached entry.
    EXPECT_DEATH(ioPolicyName(static_cast<IoPolicy>(99)),
                 "invalid IoPolicy 99");
}
