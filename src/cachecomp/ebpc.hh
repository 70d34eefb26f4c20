/**
 * @file
 * EBPC - Extended Bit-Plane Compression (Cavigelli et al., see
 * PAPERS.md) - modeled at cache-line granularity for the Figure 15
 * comparison.
 *
 * EBPC couples a zero-runlength front end with bit-plane coding of
 * the surviving nonzero words. Our line-granular model keeps both
 * stages but drops the streaming dictionary adaptivity (a 64-byte
 * window is too short for it to engage):
 *
 *  - front end: each maximal zero run costs 5 bits (a run flag plus a
 *    4-bit length, runs of up to 16 words); each nonzero word costs a
 *    1-bit keep flag;
 *  - back end: the first nonzero word is transmitted verbatim
 *    (32 bits); the remaining k-1 words are XOR-delta coded against
 *    their predecessor and sent as 32 bit-planes, where an all-zero
 *    plane costs 1 bit and a populated plane costs 1 + (k-1) bits.
 *
 * Both stages reduce to a closed form over the zero-word mask z (bit
 * w set iff word w is zero) and the k = 16 - popcount(z) nonzeros:
 *
 *   bits = 5 * popcount(z & ~(z << 1))            zero runs (a run
 *        + k                                       starts at a zero
 *        + (k > 0 ? 32 : 0)                        word whose
 *        + (k > 1 ? 32 + popcount(D) * (k-1) : 0)  predecessor is not)
 *
 * where D is the OR of the XOR deltas of consecutive nonzeros: plane
 * p is populated iff some delta has bit p set, i.e. iff bit p of D is
 * set. ebpcLineBits() computes exactly this, with no per-plane scan;
 * simd::ebpcLineBits() is its AVX-512 twin (test mask, compress the
 * nonzeros, align by one lane, XOR, OR-reduce).
 *
 * Worked golden values (tests/test_scheme.cc):
 *  - all-zero line: one 16-word run = 5 bits -> 1 byte;
 *  - 16 identical nonzeros: 16 flags + 32 verbatim + 32 empty planes
 *    = 80 bits -> 10 bytes;
 *  - alternating nonzero/zero (8 nonzeros, equal values): 8 flags +
 *    8 runs * 5 + 32 + 32 = 112 bits -> 14 bytes.
 */

#ifndef ZCOMP_CACHECOMP_EBPC_HH
#define ZCOMP_CACHECOMP_EBPC_HH

#include <cstdint>

namespace zcomp {

/** EBPC encoded size of one 64-byte line, in bits (unclamped). */
int ebpcLineBits(const uint8_t *line);

/** EBPC compressed size of one 64-byte line, in bytes (<= 64). */
int ebpcLineBytes(const uint8_t *line);

class CompressionScheme;

/** The "ebpc" CompressionScheme. */
const CompressionScheme &ebpcScheme();

} // namespace zcomp

#endif // ZCOMP_CACHECOMP_EBPC_HH
