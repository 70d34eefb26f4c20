#include "cachecomp/ebpc.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "cachecomp/scheme.hh"
#include "common/simd.hh"

namespace zcomp {

int
ebpcLineBits(const uint8_t *line)
{
    int bits = 0;
    if (simd::ebpcLineBits(line, bits))
        return bits;

    uint32_t words[schemeLineWords];
    std::memcpy(words, line, schemeLineBytes);
    uint32_t zeros = 0;
    for (int w = 0; w < schemeLineWords; w++)
        zeros |= static_cast<uint32_t>(words[w] == 0) << w;
    const int k = schemeLineWords - std::popcount(zeros);

    // Front end: 5 bits per maximal zero run (a zero word whose
    // predecessor is not zero starts one), 1 keep flag per nonzero.
    bits = 5 * std::popcount(zeros & ~(zeros << 1)) + k;
    if (k == 0)
        return bits;

    // Back end: the first nonzero verbatim, then 32 delta planes of
    // 1 bit each plus k-1 bits for every plane some delta populates.
    bits += 32;
    if (k > 1) {
        uint32_t prev = words[std::countr_zero(~zeros)];
        uint32_t planes = 0;
        for (int w = 0; w < schemeLineWords; w++) {
            const uint32_t word = words[w];
            planes |= word ? word ^ prev : 0;
            prev = word ? word : prev;
        }
        bits += 32 + std::popcount(planes) * (k - 1);
    }
    return bits;
}

int
ebpcLineBytes(const uint8_t *line)
{
    return std::min(schemeLineBytes, (ebpcLineBits(line) + 7) / 8);
}

namespace {

class EbpcScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "ebpc"; }
    int lineBytes(const uint8_t *line) const override
    {
        return ebpcLineBytes(line);
    }
    // Bit-plane transposition is the expensive part of the codec: the
    // hardware encoder/decoder sits on the memory path and serialises
    // plane by plane, so both directions carry a real per-line cost.
    double packCyclesPerLine() const override { return 4; }
    double unpackCyclesPerLine() const override { return 4; }
};

} // namespace

const CompressionScheme &
ebpcScheme()
{
    static const EbpcScheme ebpc;
    return ebpc;
}

} // namespace zcomp
