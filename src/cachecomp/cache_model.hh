/**
 * @file
 * Effective compression-ratio models for the Section 5.4 comparison
 * (Figure 15):
 *
 *  - LimitCC : an upper-bound cache compression architecture that can
 *    pack FPC-D-compressed lines at byte granularity with no physical
 *    line-boundary restrictions (approachable by e.g. Skewed
 *    Compressed Caches [47]).
 *  - TwoTagCC : a practical two-tag architecture [26] that can hold at
 *    most two logical lines in one physical line - which requires the
 *    pair's compressed sizes to fit in 64 bytes together.
 *  - ZCOMP : the proposed scheme's ratio (interleaved 2-byte headers,
 *    zero-value compression only).
 */

#ifndef ZCOMP_CACHECOMP_CACHE_MODEL_HH
#define ZCOMP_CACHECOMP_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace zcomp {

struct CompRatios
{
    double zcomp = 1.0;
    double limitCC = 1.0;
    double twoTagCC = 1.0;
};

/**
 * Analyze a raw fp32 snapshot (byte length must be a multiple of 64)
 * and return all three effective compression ratios.
 *
 * All the ratio functions below clamp per-line compressed sizes to
 * the 64-byte physical line (a real cache stores incompressible
 * lines uncompressed rather than expanding them), and throw
 * DecodeError on a misaligned snapshot so a truncated input fails
 * its study cell in isolation instead of killing the sweep.
 *
 * @param sets number of cache sets the TwoTagCC pairing models
 *        (consecutive lines round-robin over sets, pairs form within
 *        a set).
 */
CompRatios analyzeSnapshot(const uint8_t *data, size_t bytes,
                           int sets = 64);

/** ZCOMP ratio of a snapshot: 64B vs per-vector header + non-zeros. */
double zcompSnapshotRatio(const uint8_t *data, size_t bytes);

/** LimitCC ratio: byte-granular packing of FPC-D lines. */
double limitCCRatio(const uint8_t *data, size_t bytes);

/** TwoTagCC ratio: greedy in-set pairing of FPC-D lines. */
double twoTagCCRatio(const uint8_t *data, size_t bytes, int sets = 64);

class CompressionScheme;

/** The Figure 15 cache-compression schemes defined here. */
const CompressionScheme &limitccScheme();
const CompressionScheme &twotagccScheme();

/** Geometric mean helper for aggregating per-snapshot ratios. */
double geomean(const std::vector<double> &values);

} // namespace zcomp

#endif // ZCOMP_CACHECOMP_CACHE_MODEL_HH
