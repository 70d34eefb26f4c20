#include "cachecomp/zvc.hh"

#include <algorithm>

#include "cachecomp/scheme.hh"

namespace zcomp {

int
zvcBytesForNonzeros(int nnz)
{
    int raw = 2 + nnz * 4;
    int padded = (raw + zvcBeatBytes - 1) / zvcBeatBytes * zvcBeatBytes;
    return std::min(schemeLineBytes, padded);
}

int
zvcLineBytes(const uint8_t *line)
{
    return zvcBytesForNonzeros(lineNonzeroWords(line));
}

namespace {

class ZvcScheme : public ZeroValueScheme
{
  public:
    const char *name() const override { return "zvc"; }
    int bytesForNonzeros(int nnz) const override
    {
        return zvcBytesForNonzeros(nnz);
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
