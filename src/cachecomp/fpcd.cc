#include "cachecomp/fpcd.hh"

#include <algorithm>
#include <cstring>

#include "cachecomp/fpc.hh"
#include "common/simd.hh"

namespace zcomp {

int
fpcdLineBytes(const uint8_t *line)
{
    // Batch-classify the whole line up front when a vector backend is
    // active; the FIFO dictionary scan below stays scalar (it is
    // sequential by construction) but then only needs a table lookup
    // for each word that misses the dictionary.
    uint8_t wbits[16];
    uint16_t zmask = 0;
    const bool classified = simd::fpcBitsLine(line, wbits, zmask);

    // Small FIFO dictionary of recent in-line words.
    uint32_t dict[fpcdDictEntries] = {};
    int dict_fill = 0;
    int next_slot = 0;

    int payload_bits = 0;
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);

        // Zero words use the dedicated pattern code and bypass the
        // dictionary entirely.
        if (word == 0)
            continue;

        // Dictionary full / partial matches take priority over the
        // significance patterns (they capture repeated fp32 values and
        // values sharing exponent+high-mantissa bits).
        bool full = false, partial = false;
        for (int d = 0; d < dict_fill; d++) {
            if (dict[d] == word) {
                full = true;
                break;
            }
            if ((dict[d] >> 8) == (word >> 8))
                partial = true;
        }
        if (full) {
            payload_bits += 1;      // dictionary index
        } else if (partial) {
            payload_bits += 1 + 8;  // index + low byte
        } else {
            payload_bits += classified
                ? wbits[w]
                : fpcPayloadBits(fpcClassify(word));
        }
        if (!full) {
            dict[next_slot] = word;
            next_slot = (next_slot + 1) % fpcdDictEntries;
            dict_fill = std::min(dict_fill + 1, fpcdDictEntries);
        }
    }

    return fpcdBytesForPayload(payload_bits);
}

void
fpcdLinesBytes(const uint8_t *lines, size_t count, int *out)
{
    size_t l = 0;
    uint16_t bits[16];
    for (; l + 16 <= count && simd::fpcdPayloadBits16(lines + l * 64, bits);
         l += 16) {
        for (int i = 0; i < 16; i++)
            out[l + static_cast<size_t>(i)] = fpcdBytesForPayload(bits[i]);
    }
    for (; l < count; l++)
        out[l] = fpcdLineBytes(lines + l * 64);
}

} // namespace zcomp
