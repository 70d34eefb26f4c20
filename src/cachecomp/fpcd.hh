/**
 * @file
 * FPC-D [9]: Frequent Pattern Compression with a Limited Dictionary,
 * the algorithm both cache-compression baselines of Section 5.4 use.
 *
 * Each 32-bit word of a 64-byte line is encoded with a 4-bit code:
 * the classic FPC significance patterns plus hits in a small
 * recent-words dictionary (full 32-bit match, or a partial match of
 * the upper 24 bits with the low byte transmitted). The 16 codes form
 * a fixed 8-byte per-line prefix - the overhead the paper contrasts
 * with ZCOMP's 2-byte header when explaining why LimitCC trails ZCOMP
 * on feature maps.
 */

#ifndef ZCOMP_CACHECOMP_FPCD_HH
#define ZCOMP_CACHECOMP_FPCD_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace zcomp {

/** FPC-D compressed size of one 64-byte line, in bytes (<= 64). */
int fpcdLineBytes(const uint8_t *line);

/**
 * fpcdLineBytes() of `count` consecutive 64-byte lines into out[0..
 * count). Blocks of 16 lines go through simd::fpcdPayloadBits16()
 * when the backend has it (one line per lane); the rest, and every
 * line on other backends, through fpcdLineBytes(), the specification.
 */
void fpcdLinesBytes(const uint8_t *lines, size_t count, int *out);

/** Fixed per-line metadata bytes (16 x 4-bit codes). */
constexpr int fpcdPrefixBytes = 8;

/** Line size for a payload of `bits`: prefix + payload bytes, <= 64. */
constexpr int
fpcdBytesForPayload(int bits)
{
    return std::min(64, fpcdPrefixBytes + (bits + 7) / 8);
}

/** Dictionary entries maintained while compressing a line. */
constexpr int fpcdDictEntries = 2;

} // namespace zcomp

#endif // ZCOMP_CACHECOMP_FPCD_HH
