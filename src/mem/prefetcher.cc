#include "mem/prefetcher.hh"

#include <algorithm>

namespace zcomp {

StreamPrefetcher::StreamPrefetcher(const PrefetchConfig &cfg)
    : cfg_(cfg), pages_(static_cast<size_t>(cfg.l2StreamTableSize), kFree),
      streams_(pages_.size())
{
}

void
StreamPrefetcher::reset()
{
    std::fill(pages_.begin(), pages_.end(), kFree);
    issued_ = 0;
    clock_ = 0;
}

void
StreamPrefetcher::onAccess(Addr line, std::vector<Addr> &out)
{
    clock_++;
    Addr page = alignDown(line, pageBytes);

    // Nearly every access falls in a page that already has a stream,
    // found by a scan of the page array alone.
    size_t n = pages_.size();
    size_t i = 0;
    while (i < n && pages_[i] != page)
        i++;
    if (i == n) {
        // A new page: one pass finds the trackers of both neighbouring
        // pages and the entry a new stream would take (the first free
        // one, else the first least recently used); nothing changes the
        // table until all three are known. The lower neighbour is
        // clamped at address zero: page - pageBytes would wrap.
        size_t prev = n, next = n, vacant = n, lru = 0;
        for (size_t j = 0; j < n; j++) {
            Addr p = pages_[j];
            if (p == kFree) {
                vacant = std::min(vacant, j);
                continue;
            }
            if (page >= pageBytes && p == page - pageBytes)
                prev = std::min(prev, j);
            else if (p == page + pageBytes)
                next = std::min(next, j);
            if (streams_[j].lastUse < streams_[lru].lastUse)
                lru = j;
        }
        // A stream crossing into the next page continues seamlessly:
        // retarget the tracker that was following the previous page.
        if (prev < n && streams_[prev].direction > 0 &&
            streams_[prev].confidence > 0 &&
            line == streams_[prev].lastLine + lineBytes) {
            i = prev;
        } else if (next < n && streams_[next].direction < 0 &&
                   streams_[next].confidence > 0 &&
                   streams_[next].lastLine >= lineBytes &&
                   line == streams_[next].lastLine - lineBytes) {
            i = next;
        }
        if (i == n) {
            i = vacant < n ? vacant : lru;
            pages_[i] = page;
            streams_[i] = {line, line + lineBytes, 1, 0, clock_};
            return;
        }
        pages_[i] = page;
    }

    Stream *s = &streams_[i];
    s->lastUse = clock_;
    int64_t delta = static_cast<int64_t>(line) -
                    static_cast<int64_t>(s->lastLine);
    if (delta == 0)
        return;

    int dir = delta > 0 ? 1 : -1;
    // Allow small jitter (unaligned compressed vectors can touch the
    // same or the next line non-monotonically by one line).
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

    // Issue up to degree prefetches, staying within distance of the
    // demand stream. Downward streams clamp at address zero: the
    // line - lineBytes steps are unsigned, and near 0 they would
    // wrap to huge bogus prefetch addresses.
    Addr dist_bytes =
        static_cast<Addr>(cfg_.l2Distance) * lineBytes;
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
            return;     // at line zero; nothing below to prefetch
        Addr limit = line > dist_bytes ? line - dist_bytes : Addr(0);
        if (s->nextIssue >= line)
            s->nextIssue = line - lineBytes;
        for (int i = 0; i < cfg_.l2Degree; i++) {
            if (s->nextIssue < limit)
                break;
            out.push_back(s->nextIssue);
            issued_++;
            if (s->nextIssue < lineBytes)
                break;  // issued line zero; the stream ends here
            s->nextIssue -= lineBytes;
        }
    }
}

IpStridePrefetcher::IpStridePrefetcher(int table_size, int degree)
    : table_(static_cast<size_t>(table_size)), degree_(degree)
{
}

void
IpStridePrefetcher::reset()
{
    for (auto &e : table_)
        e.valid = false;
    issued_ = 0;
}

void
IpStridePrefetcher::onAccess(uint32_t pc, Addr line,
                             std::vector<Addr> &out)
{
    Entry &e = table_[pc % table_.size()];
    if (!e.valid || e.pc != pc) {
        e.valid = true;
        e.pc = pc;
        e.lastLine = line;
        e.stride = 0;
        e.confidence = 0;
        return;
    }
    int64_t stride = static_cast<int64_t>(line) -
                     static_cast<int64_t>(e.lastLine);
    if (stride == 0)
        return;
    if (stride == e.stride) {
        if (e.confidence < 4)
            e.confidence++;
    } else {
        e.stride = stride;
        e.confidence = 1;
    }
    e.lastLine = line;
    if (e.confidence >= 2) {
        // Candidates are clamped two ways: line + stride*i can wrap
        // negative through the int64 -> Addr cast (bogus huge
        // addresses), and real IP-stride prefetchers stop at the
        // 4 KiB page boundary. Clamped candidates are not issued and
        // therefore not counted.
        Addr page = alignDown(line, prefetchPageBytes);
        for (int i = 1; i <= degree_; i++) {
            int64_t cand = static_cast<int64_t>(line) + e.stride * i;
            if (cand < 0)
                break;
            Addr a = static_cast<Addr>(cand);
            if (alignDown(a, prefetchPageBytes) != page)
                break;
            out.push_back(a);
            issued_++;
        }
    }
}

} // namespace zcomp
