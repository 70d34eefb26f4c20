#include "cachecomp/ebpc.hh"

#include <algorithm>
#include <cstring>

#include "cachecomp/scheme.hh"

namespace zcomp {

int
ebpcLineBytes(const uint8_t *line)
{
    uint32_t words[schemeLineWords];
    std::memcpy(words, line, schemeLineBytes);

    // Zero-runlength front end over the 16 words.
    uint32_t nonzeros[schemeLineWords];
    int k = 0;
    int bits = 0;
    for (int w = 0; w < schemeLineWords;) {
        if (words[w] == 0) {
            int run = 0;
            while (w < schemeLineWords && words[w] == 0) {
                run++;
                w++;
            }
            bits += 5;      // run flag + 4-bit length (run <= 16)
            (void)run;
        } else {
            bits += 1;      // keep flag
            nonzeros[k++] = words[w];
            w++;
        }
    }

    // Bit-plane back end over the nonzero stream.
    if (k > 0) {
        bits += 32;         // first value verbatim
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
    return std::min(schemeLineBytes, (bits + 7) / 8);
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
