/**
 * @file
 * CompressionScheme - the pluggable interface behind the Section 5.4
 * comparison (Figure 15) and the bench-layer policy plumbing.
 *
 * A scheme models one compression approach at cache-line granularity:
 * its compressed size for a 64-byte line of fp32 data, an optional
 * whole-snapshot ratio override (for architectures whose effective
 * ratio is not a pure per-line sum, e.g. TwoTagCC's in-set pairing),
 * and stream pack/unpack cost hooks consumed by the Figure 15
 * bandwidth-bound speedup model.
 *
 * The scheme list (see DESIGN.md Section 4.10): allSchemes() is one
 * fixed list of static singletons - uncompressed, avx512-comp, zcomp,
 * limitcc, twotagcc, ebpc, zvc - so every consumer (tables, report
 * rows, cache keys) sees the same order on every run and worker
 * count. Schemes defined outside scheme.cc expose one accessor each
 * (limitccScheme(), ebpcScheme(), ...).
 */

#ifndef ZCOMP_CACHECOMP_SCHEME_HH
#define ZCOMP_CACHECOMP_SCHEME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace zcomp {

/** Uncompressed cache-line geometry every scheme models against. */
constexpr int schemeLineBytes = 64;
constexpr int schemeLineWords = 16;

class CompressionScheme
{
  public:
    virtual ~CompressionScheme() = default;

    /** Stable lowercase identifier ("zcomp", "ebpc", ...); used as
     *  the report/table/cache-key label for this scheme. */
    virtual const char *name() const = 0;

    /**
     * Compressed size of one 64-byte line, in bytes. Implementations
     * must clamp to [1, 64]: a real cache stores an incompressible
     * line uncompressed rather than letting metadata expand it past
     * the physical line (the Figure 15 accounting bug this interface
     * fixed - see ISSUE 9).
     */
    virtual int lineBytes(const uint8_t *line) const = 0;

    /**
     * Stream conversion cost hooks for the Figure 15 speedup model:
     * extra core cycles charged per 64-byte line on the store
     * (pack) and load (unpack) path. Zero means the conversion is
     * free / fully hidden (uncompressed, or hardware off the critical
     * path).
     */
    virtual double packCyclesPerLine() const { return 0; }
    virtual double unpackCyclesPerLine() const { return 0; }

    /**
     * Effective compression ratio over a line-aligned fp32 snapshot
     * (original bytes / compressed bytes, >= 1 by the lineBytes()
     * clamp). The default sums lineBytes(); schemes with cross-line
     * packing constraints (TwoTagCC) override it. Throws DecodeError
     * on a misaligned snapshot so a truncated input fails its study
     * cell in isolation instead of killing the sweep.
     */
    virtual double snapshotRatio(const uint8_t *data,
                                 size_t bytes) const;
};

/** Look a scheme up by name(); nullptr when unknown. */
const CompressionScheme *schemeByName(const std::string &name);

/** Every scheme, in the fixed list order above. */
const std::vector<const CompressionScheme *> &allSchemes();

/**
 * Validate that a snapshot is line-aligned; throws DecodeError (via
 * decodeError(), bumping the detection counter) when it is not.
 * Shared by every snapshotRatio() implementation.
 */
void checkSnapshotAligned(size_t bytes);

/** Nonzero 32-bit words of one 64-byte line, in [0, 16]. */
inline int
lineNonzeroWords(const uint8_t *line)
{
    int nnz = 0;
    for (int w = 0; w < schemeLineWords; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);
        nnz += word != 0;
    }
    return nnz;
}

/**
 * A scheme whose line size depends only on the line's nonzero word
 * count: avx512-comp, zcomp and zvc. lineBytes() is
 * bytesForNonzeros(lineNonzeroWords(line)). snapshotRatio() makes one
 * pass that counts lines per nonzero count (simd::nonzeroWordHistogram,
 * lineNonzeroWords() as its scalar path) and sums
 * hist[k] * bytesForNonzeros(k): the same integer the per-line sum
 * reaches, so the ratio is identical.
 */
class ZeroValueScheme : public CompressionScheme
{
  public:
    /** Compressed bytes of a line with `nnz` nonzero words, in
     *  [1, 64]. */
    virtual int bytesForNonzeros(int nnz) const = 0;

    int lineBytes(const uint8_t *line) const final
    {
        return bytesForNonzeros(lineNonzeroWords(line));
    }

    double snapshotRatio(const uint8_t *data,
                         size_t bytes) const final;
};

/** ZCOMP compressed size of a line with `nnz` nonzero words: a 2-byte
 *  interleaved header per 16-lane vector plus the packed nonzero
 *  words, clamped to the physical line. Shared by the zcomp and
 *  avx512-comp schemes (the avx512-comp mask array has the same
 *  2-byte-per-vector footprint, just stored out of line). */
int zcompBytesForNonzeros(int nnz);

} // namespace zcomp

#endif // ZCOMP_CACHECOMP_SCHEME_HH
