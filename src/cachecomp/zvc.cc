#include "cachecomp/zvc.hh"

#include <algorithm>
#include <cstring>

#include "cachecomp/scheme.hh"

namespace zcomp {

int
zvcLineBytes(const uint8_t *line)
{
    int nnz = 0;
    for (int w = 0; w < schemeLineWords; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);
        nnz += word != 0;
    }
    int raw = 2 + nnz * 4;
    int padded = (raw + zvcBeatBytes - 1) / zvcBeatBytes * zvcBeatBytes;
    return std::min(schemeLineBytes, padded);
}

namespace {

class ZvcScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "zvc"; }
    int lineBytes(const uint8_t *line) const override
    {
        return zvcLineBytes(line);
    }
    // The DMA engine compresses off the core's critical path; the
    // residual cost is the mask lookup when the burst is reassembled.
    double packCyclesPerLine() const override { return 1; }
    double unpackCyclesPerLine() const override { return 1; }
};

} // namespace

const CompressionScheme &
zvcScheme()
{
    static const ZvcScheme zvc;
    return zvc;
}

} // namespace zcomp
