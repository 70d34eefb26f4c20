/**
 * @file
 * ZVC - cDMA-style Zero-Value Compression (Rhu et al., see
 * PAPERS.md) - modeled at cache-line granularity for the Figure 15
 * comparison.
 *
 * cDMA compresses activation maps on the DMA path with the simplest
 * possible scheme: a 1-bit-per-word presence mask followed by the
 * nonzero words packed back to back. The DMA engine moves data in
 * fixed bursts, so the compressed payload of every line is rounded up
 * to the burst beat:
 *
 *   bytes = min(64, roundUp(2 + 4 * nnz, zvcBeatBytes))
 *
 * (2 mask bytes for 16 words, 8-byte beats). Worked golden values
 * (tests/test_scheme.cc): all-zero line -> 8 bytes, dense line ->
 * 64 bytes (clamped), alternating half-sparse line -> 40 bytes.
 */

#ifndef ZCOMP_CACHECOMP_ZVC_HH
#define ZCOMP_CACHECOMP_ZVC_HH

#include <cstdint>

namespace zcomp {

/** DMA burst beat the compressed payload is padded to. */
constexpr int zvcBeatBytes = 8;

/** ZVC compressed size of a line with `nnz` nonzero words, in bytes
 *  (<= 64). */
int zvcBytesForNonzeros(int nnz);

/** zvcBytesForNonzeros() of one 64-byte line. */
int zvcLineBytes(const uint8_t *line);

class CompressionScheme;

/** The "zvc" CompressionScheme. */
const CompressionScheme &zvcScheme();

} // namespace zcomp

#endif // ZCOMP_CACHECOMP_ZVC_HH
