#include "cachecomp/cache_model.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cachecomp/fpcd.hh"
#include "cachecomp/scheme.hh"
#include "common/log.hh"

namespace zcomp {

namespace {

/**
 * FPC-D size of one line as the cache-compression models store it:
 * never past the physical line. fpcdLineBytes() already saturates at
 * 64, but the models clamp again at their use site so the invariant
 * cannot silently regress if the codec changes (ISSUE 9: an
 * unclamped size deflated limitCCRatio() below 1 and wedged TwoTagCC
 * slots past any possible partner).
 */
int
storedFpcdLineBytes(const uint8_t *line)
{
    return std::min(schemeLineBytes, fpcdLineBytes(line));
}

/**
 * Call f(stored FPC-D size) for each line of a snapshot, in order.
 * Sizes come from fpcdLinesBytes() a chunk at a time, so whole
 * 16-line blocks take its vector path.
 */
template <typename F>
void
forEachStoredFpcdLine(const uint8_t *data, size_t lines, F &&f)
{
    constexpr size_t chunk = 256;
    int sizes[chunk];
    for (size_t base = 0; base < lines; base += chunk) {
        const size_t n = std::min(chunk, lines - base);
        fpcdLinesBytes(data + base * 64, n, sizes);
        for (size_t i = 0; i < n; i++)
            f(std::min(schemeLineBytes, sizes[i]));
    }
}

} // namespace

double
zcompSnapshotRatio(const uint8_t *data, size_t bytes)
{
    return schemeByName("zcomp")->snapshotRatio(data, bytes);
}

double
limitCCRatio(const uint8_t *data, size_t bytes)
{
    checkSnapshotAligned(bytes);
    if (bytes == 0)
        return 1.0;
    uint64_t compressed = 0;
    forEachStoredFpcdLine(data, bytes / 64, [&](int sz) {
        compressed += static_cast<uint64_t>(sz);
    });
    return static_cast<double>(bytes) / static_cast<double>(compressed);
}

double
twoTagCCRatio(const uint8_t *data, size_t bytes, int sets)
{
    checkSnapshotAligned(bytes);
    fatal_if(sets <= 0, "need at least one set");
    if (bytes == 0)
        return 1.0;
    size_t lines = bytes / 64;

    // Greedy in-set pairing: walk each set's lines in order, packing a
    // line together with the previous unpaired one when their
    // compressed sizes fit a single 64 B physical line.
    std::vector<int> pending(static_cast<size_t>(sets), -1);
    uint64_t physical = 0;
    size_t set = 0;
    forEachStoredFpcdLine(data, lines, [&](int sz) {
        int &prev = pending[set];
        set = set + 1 == pending.size() ? 0 : set + 1;
        if (prev >= 0 && prev + sz <= 64) {
            // Pair completes: the two logical lines share one
            // physical line (already counted when prev was opened).
            prev = -1;
        } else {
            physical++;
            prev = sz;
        }
    });
    return static_cast<double>(lines) / static_cast<double>(physical);
}

CompRatios
analyzeSnapshot(const uint8_t *data, size_t bytes, int sets)
{
    CompRatios r;
    r.zcomp = zcompSnapshotRatio(data, bytes);
    r.limitCC = limitCCRatio(data, bytes);
    r.twoTagCC = twoTagCCRatio(data, bytes, sets);
    return r;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

class LimitCCScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "limitcc"; }
    int lineBytes(const uint8_t *line) const override
    {
        return storedFpcdLineBytes(line);
    }
    double snapshotRatio(const uint8_t *data,
                         size_t bytes) const override
    {
        return limitCCRatio(data, bytes);
    }
    // Hardware FPC-D behind the cache: compression is off the store
    // path, decompression adds a short serial decode on fills.
    double unpackCyclesPerLine() const override { return 2; }
};

class TwoTagCCScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "twotagcc"; }
    int lineBytes(const uint8_t *line) const override
    {
        return storedFpcdLineBytes(line);
    }
    // The effective ratio is set by in-set pairing, not the per-line
    // sum, so the snapshot walk is overridden wholesale.
    double snapshotRatio(const uint8_t *data,
                         size_t bytes) const override
    {
        return twoTagCCRatio(data, bytes);
    }
    double unpackCyclesPerLine() const override { return 2; }
};

} // namespace

const CompressionScheme &
limitccScheme()
{
    static const LimitCCScheme limitcc;
    return limitcc;
}

const CompressionScheme &
twotagccScheme()
{
    static const TwoTagCCScheme twotagcc;
    return twotagcc;
}

} // namespace zcomp
