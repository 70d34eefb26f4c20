#include "cachecomp/scheme.hh"

#include <algorithm>

#include "cachecomp/cache_model.hh"
#include "cachecomp/ebpc.hh"
#include "cachecomp/zvc.hh"
#include "common/error.hh"
#include "common/simd.hh"
#include "isa/dtype.hh"

namespace zcomp {

namespace {

class UncompressedScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "uncompressed"; }
    int lineBytes(const uint8_t *) const override
    {
        return schemeLineBytes;
    }
    // Every line is stored whole, so no pass over the data is needed.
    double snapshotRatio(const uint8_t *, size_t bytes) const override
    {
        checkSnapshotAligned(bytes);
        return 1.0;
    }
};

class Avx512CompScheme : public ZeroValueScheme
{
  public:
    const char *name() const override { return "avx512-comp"; }
    int bytesForNonzeros(int nnz) const override
    {
        return zcompBytesForNonzeros(nnz);
    }
    // Software compress/expand around every vector: mask compute +
    // vcompressstoreu + mask-array store on the way out, mask load +
    // vexpandloadu + stream-pointer update on the way back (the
    // Figure 10/11 instruction overhead).
    double packCyclesPerLine() const override { return 3; }
    double unpackCyclesPerLine() const override { return 3; }
};

class ZcompScheme : public ZeroValueScheme
{
  public:
    const char *name() const override { return "zcomp"; }
    int bytesForNonzeros(int nnz) const override
    {
        return zcompBytesForNonzeros(nnz);
    }
    // zcomps/zcompl do the header bookkeeping in hardware; ReLU
    // stores fuse the LTEZ compare, leaving ~one extra uop per
    // vector on each path.
    double packCyclesPerLine() const override { return 1; }
    double unpackCyclesPerLine() const override { return 1; }
};

} // namespace

double
ZeroValueScheme::snapshotRatio(const uint8_t *data, size_t bytes) const
{
    checkSnapshotAligned(bytes);
    if (bytes == 0)
        return 1.0;
    const size_t lines = bytes / schemeLineBytes;
    uint64_t hist[schemeLineWords + 1] = {};
    if (!simd::nonzeroWordHistogram(data, lines, hist)) {
        for (size_t l = 0; l < lines; l++)
            hist[lineNonzeroWords(data + l * schemeLineBytes)]++;
    }
    uint64_t compressed = 0;
    for (int k = 0; k <= schemeLineWords; k++)
        compressed += hist[k] * static_cast<uint64_t>(bytesForNonzeros(k));
    return static_cast<double>(bytes) /
           static_cast<double>(compressed);
}

int
zcompBytesForNonzeros(int nnz)
{
    return std::min(schemeLineBytes,
                    headerBytes(ElemType::F32) + nnz * 4);
}

const std::vector<const CompressionScheme *> &
allSchemes()
{
    static const UncompressedScheme uncompressed;
    static const Avx512CompScheme avx512;
    static const ZcompScheme zcomp;
    static const std::vector<const CompressionScheme *> schemes = {
        &uncompressed, &avx512, &zcomp, &limitccScheme(),
        &twotagccScheme(), &ebpcScheme(), &zvcScheme()};
    return schemes;
}

const CompressionScheme *
schemeByName(const std::string &name)
{
    for (const CompressionScheme *s : allSchemes()) {
        if (name == s->name())
            return s;
    }
    return nullptr;
}

void
checkSnapshotAligned(size_t bytes)
{
    if (bytes % schemeLineBytes != 0) {
        decodeError("snapshot not line-aligned: %zu bytes (need a "
                    "multiple of %d)",
                    bytes, schemeLineBytes);
    }
}

double
CompressionScheme::snapshotRatio(const uint8_t *data,
                                 size_t bytes) const
{
    checkSnapshotAligned(bytes);
    if (bytes == 0)
        return 1.0;
    uint64_t compressed = 0;
    for (size_t off = 0; off < bytes; off += schemeLineBytes)
        compressed += static_cast<uint64_t>(lineBytes(data + off));
    return static_cast<double>(bytes) /
           static_cast<double>(compressed);
}

} // namespace zcomp
