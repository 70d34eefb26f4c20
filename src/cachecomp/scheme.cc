#include "cachecomp/scheme.hh"

#include <algorithm>
#include <cstring>

#include "cachecomp/cache_model.hh"
#include "cachecomp/ebpc.hh"
#include "cachecomp/zvc.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "isa/dtype.hh"

namespace zcomp {

namespace {

/**
 * The registry vector. Mutated only inside ensureRegistered()'s
 * one-time initialisation (thread-safe by the C++11 static-init
 * guarantee), read-only afterwards, so lookups need no lock. A plain
 * vector - not a map - so iteration order is registration order, per
 * the determinism contract.
 */
std::vector<const CompressionScheme *> &
mutableRegistry()
{
    static std::vector<const CompressionScheme *> registry;
    return registry;
}

/**
 * Drive every scheme-defining translation unit's registration hook in
 * a fixed sequence. Called from every registry accessor, so the full
 * scheme set exists before any lookup - lazy hooks (rather than
 * static initialisers in each .cc) sidestep both the static-init
 * order fiasco and the linker dead-stripping registration objects out
 * of the static library.
 */
void
ensureRegistered()
{
    static const bool once = [] {
        registerBuiltinSchemes();   // uncompressed, avx512-comp, zcomp
        registerCacheModelSchemes();    // limitcc, twotagcc
        registerEbpcScheme();
        registerZvcScheme();
        return true;
    }();
    (void)once;
}

class UncompressedScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "uncompressed"; }
    int lineBytes(const uint8_t *) const override
    {
        return schemeLineBytes;
    }
};

class Avx512CompScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "avx512-comp"; }
    int lineBytes(const uint8_t *line) const override
    {
        return zcompLineBytes(line);
    }
    // Software compress/expand around every vector: mask compute +
    // vcompressstoreu + mask-array store on the way out, mask load +
    // vexpandloadu + stream-pointer update on the way back (the
    // Figure 10/11 instruction overhead).
    double packCyclesPerLine() const override { return 3; }
    double unpackCyclesPerLine() const override { return 3; }
};

class ZcompScheme : public CompressionScheme
{
  public:
    const char *name() const override { return "zcomp"; }
    int lineBytes(const uint8_t *line) const override
    {
        return zcompLineBytes(line);
    }
    // zcomps/zcompl do the header bookkeeping in hardware; ReLU
    // stores fuse the LTEZ compare, leaving ~one extra uop per
    // vector on each path.
    double packCyclesPerLine() const override { return 1; }
    double unpackCyclesPerLine() const override { return 1; }
};

} // namespace

int
zcompLineBytes(const uint8_t *line)
{
    int nnz = 0;
    for (int w = 0; w < schemeLineWords; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);
        nnz += word != 0;
    }
    return std::min(schemeLineBytes,
                    headerBytes(ElemType::F32) + nnz * 4);
}

void
registerBuiltinSchemes()
{
    static const UncompressedScheme uncompressed;
    static const Avx512CompScheme avx512;
    static const ZcompScheme zcomp;
    static const bool once = [] {
        registerScheme(uncompressed);
        registerScheme(avx512);
        registerScheme(zcomp);
        return true;
    }();
    (void)once;
}

void
registerScheme(const CompressionScheme &s)
{
    std::vector<const CompressionScheme *> &reg = mutableRegistry();
    for (const CompressionScheme *existing : reg) {
        panic_if(std::strcmp(existing->name(), s.name()) == 0,
                 "compression scheme '%s' registered twice", s.name());
    }
    reg.push_back(&s);
}

const CompressionScheme *
schemeByName(const std::string &name)
{
    ensureRegistered();
    for (const CompressionScheme *s : mutableRegistry()) {
        if (name == s->name())
            return s;
    }
    return nullptr;
}

const std::vector<const CompressionScheme *> &
allSchemes()
{
    ensureRegistered();
    return mutableRegistry();
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
