/**
 * @file
 * Differential tests for the runtime-dispatched SIMD backend: every
 * kernel in common/simd.hh must be bit-identical to the scalar
 * reference loop at its call site, on every backend the host
 * supports, across the adversarial value classes (denormals, NaN
 * payload bit patterns, signed zeros, all-zero / all-dense vectors)
 * and on unaligned buffers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cachecomp/fpc.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "isa/ccf.hh"
#include "isa/dtype.hh"
#include "isa/vec.hh"
#include "isa/zcomp_isa.hh"

#include "codec_lines.hh"

using namespace zcomp;

namespace {

using codec_lines::BackendGuard;

/** The non-scalar backends this host can actually run. */
std::vector<simd::Backend>
nativeBackends()
{
    std::vector<simd::Backend> v;
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::backendSupported(b))
            v.push_back(b);
    return v;
}

/** fp32 bit patterns covering every adversarial class. */
const std::vector<uint32_t> &
adversarialF32Bits()
{
    static const std::vector<uint32_t> bits = {
        0x00000000u,  // +0.0
        0x80000000u,  // -0.0
        0x00000001u,  // smallest positive denormal
        0x80000001u,  // smallest negative denormal
        0x007FFFFFu,  // largest denormal
        0x7F800000u,  // +inf
        0xFF800000u,  // -inf
        0x7FC00000u,  // canonical qNaN
        0x7F800001u,  // sNaN, minimal payload
        0xFFC01234u,  // negative NaN with payload bits
        0x3F800000u,  // 1.0
        0xBF800000u,  // -1.0
        0x00800000u,  // smallest normal
    };
    return bits;
}

/** A corpus of 64-byte vectors per element width. */
std::vector<Vec512>
vectorCorpus(int eb)
{
    std::vector<Vec512> corpus;
    corpus.push_back(Vec512::zero());           // all-zero
    Vec512 dense;
    std::memset(dense.bytes, 0xA5, 64);         // all-dense, signs set
    corpus.push_back(dense);
    std::memset(dense.bytes, 0x11, 64);         // all-dense, signs clear
    corpus.push_back(dense);

    // One lane nonzero at each position; sign bit only; adversarial
    // fp32 patterns tiled; random mixtures.
    for (int pos = 0; pos < 64 / eb; pos += (64 / eb > 16 ? 7 : 1)) {
        Vec512 v = Vec512::zero();
        v.bytes[pos * eb] = 1;
        corpus.push_back(v);
        v = Vec512::zero();
        v.bytes[pos * eb + eb - 1] = 0x80;      // negative zero-ish
        corpus.push_back(v);
    }
    if (eb == 4) {
        Vec512 v;
        const auto &adv = adversarialF32Bits();
        for (int i = 0; i < 16; i++) {
            uint32_t w = adv[static_cast<size_t>(i) % adv.size()];
            std::memcpy(v.bytes + i * 4, &w, 4);
        }
        corpus.push_back(v);
    }
    Rng rng(7 + static_cast<uint64_t>(eb));
    for (int r = 0; r < 24; r++) {
        Vec512 v;
        for (int b = 0; b < 64; b++)
            v.bytes[b] = rng.chance(0.4)
                             ? 0
                             : static_cast<uint8_t>(rng.below(256));
        corpus.push_back(v);
    }
    return corpus;
}

/** Scalar header reference straight off laneKept(). */
uint64_t
refHeader(const Vec512 &v, ElemType t, Ccf ccf)
{
    uint64_t h = 0;
    for (int i = 0; i < lanesPerVec(t); i++) {
        uint64_t raw = 0;
        std::memcpy(&raw, v.bytes + i * elemBytes(t),
                    static_cast<size_t>(elemBytes(t)));
        if (laneKept(raw, t, ccf))
            h |= 1ULL << i;
    }
    return h;
}

} // namespace

TEST(SimdDispatch, ParseAndNames)
{
    simd::Backend b;
    EXPECT_TRUE(simd::parseBackend("off", b));
    EXPECT_EQ(b, simd::Backend::Scalar);
    EXPECT_TRUE(simd::parseBackend("scalar", b));
    EXPECT_EQ(b, simd::Backend::Scalar);
    EXPECT_TRUE(simd::parseBackend("auto", b));
    EXPECT_EQ(b, simd::bestSupportedBackend());
    EXPECT_FALSE(simd::parseBackend("sse9", b));
    EXPECT_STREQ(simd::backendName(simd::Backend::Scalar), "scalar");
    EXPECT_STREQ(simd::backendName(simd::Backend::Avx512), "avx512");
    EXPECT_TRUE(simd::backendSupported(simd::Backend::Scalar));
}

TEST(SimdDispatch, ScalarBackendHandlesNothing)
{
    BackendGuard guard;
    simd::setBackend(simd::Backend::Scalar);
    uint64_t h;
    uint8_t buf[64] = {};
    float f[16] = {};
    uint8_t bits[16];
    uint16_t zm;
    EXPECT_FALSE(simd::laneHeader(buf, 4, false, h));
    EXPECT_FALSE(simd::packLanes(buf, 4, 0xFFFF, buf));
    EXPECT_FALSE(simd::unpackLanes(buf, 4, 0xFFFF, buf));
    EXPECT_FALSE(simd::fpcBitsLine(buf, bits, zm));
    int ebpc_bits;
    uint16_t fpcd_bits[16];
    std::vector<uint8_t> lines(16 * 64, 0);
    EXPECT_FALSE(simd::ebpcLineBits(buf, ebpc_bits));
    EXPECT_FALSE(simd::fpcdPayloadBits16(lines.data(), fpcd_bits));
    EXPECT_FALSE(simd::axpyF32(1.0f, f, f, 16));
    EXPECT_FALSE(simd::dotPanel16F32(f, f, 0, f));
}

TEST(SimdDiff, LaneHeaderAllTypesAndCcfs)
{
    BackendGuard guard;
    for (simd::Backend b : nativeBackends()) {
        simd::setBackend(b);
        for (int ti = 0; ti < numElemTypes; ti++) {
            auto t = static_cast<ElemType>(ti);
            for (Ccf ccf : {Ccf::EQZ, Ccf::LTEZ}) {
                for (const Vec512 &v : vectorCorpus(elemBytes(t))) {
                    uint64_t h = 0;
                    if (!simd::laneHeader(v.bytes, elemBytes(t),
                                          ccf == Ccf::LTEZ, h))
                        continue;  // width not handled by this backend
                    EXPECT_EQ(h, refHeader(v, t, ccf))
                        << simd::backendName(b) << " "
                        << elemSuffix(t) << " " << ccfName(ccf);
                }
            }
        }
        // AVX-512 must handle every lane width.
        if (b == simd::Backend::Avx512) {
            for (int eb : {1, 2, 4, 8}) {
                uint64_t h;
                Vec512 v = Vec512::zero();
                EXPECT_TRUE(simd::laneHeader(v.bytes, eb, false, h));
            }
        }
    }
}

TEST(SimdDiff, PackUnpackLanesExactAndUnaligned)
{
    BackendGuard guard;
    for (simd::Backend b : nativeBackends()) {
        simd::setBackend(b);
        for (int eb : {1, 2, 4, 8}) {
            const int lanes = 64 / eb;
            for (const Vec512 &v : vectorCorpus(eb)) {
                // Headers: derived (EQZ), all-set, alternating.
                const uint64_t full =
                    lanes >= 64 ? ~uint64_t{0}
                                : ((uint64_t{1} << lanes) - 1);
                uint64_t ref = refHeader(
                    v, eb == 4 ? ElemType::F32 : ElemType::I8,
                    Ccf::EQZ);
                if (eb != 1)
                    ref &= full;
                for (uint64_t header :
                     {ref, full, uint64_t{0},
                      full & uint64_t{0x5555555555555555}}) {
                    const int nnz = __builtin_popcountll(header);

                    // +1 offsets make the buffers deliberately
                    // misaligned for every vector width.
                    std::vector<uint8_t> packedBuf(64 + 1, 0xEE);
                    uint8_t *packed = packedBuf.data() + 1;
                    if (!simd::packLanes(v.bytes, eb, header, packed))
                        continue;

                    // Scalar pack reference.
                    std::vector<uint8_t> expect;
                    for (int i = 0; i < lanes; i++)
                        if ((header >> i) & 1)
                            expect.insert(expect.end(),
                                          v.bytes + i * eb,
                                          v.bytes + (i + 1) * eb);
                    ASSERT_EQ(expect.size(),
                              static_cast<size_t>(nnz * eb));
                    // expect.data() is null when the header is empty;
                    // memcmp's arguments are declared nonnull.
                    if (!expect.empty()) {
                        EXPECT_EQ(std::memcmp(packed, expect.data(),
                                              expect.size()),
                                  0)
                            << simd::backendName(b) << " eb=" << eb;
                    }
                    // Nothing beyond popcount*eb may be written.
                    for (size_t i = expect.size(); i < 64; i++)
                        ASSERT_EQ(packed[i], 0xEE);

                    std::vector<uint8_t> outBuf(64 + 1, 0xDD);
                    uint8_t *out = outBuf.data() + 1;
                    ASSERT_TRUE(
                        simd::unpackLanes(packed, eb, header, out));
                    Vec512 expectV = Vec512::zero();
                    size_t in = 0;
                    for (int i = 0; i < lanes; i++) {
                        if (!((header >> i) & 1))
                            continue;
                        std::memcpy(expectV.bytes + i * eb,
                                    expect.data() + in,
                                    static_cast<size_t>(eb));
                        in += static_cast<size_t>(eb);
                    }
                    EXPECT_EQ(std::memcmp(out, expectV.bytes, 64), 0)
                        << simd::backendName(b) << " eb=" << eb;
                }
            }
        }
    }
}

TEST(SimdDiff, FpcBitsLineMatchesClassifier)
{
    BackendGuard guard;
    // Per-class crafted words plus random lines.
    std::vector<std::vector<uint32_t>> lines;
    lines.push_back({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    lines.push_back({0x00000007u, 0xFFFFFFF9u,       // signext4
                     0x0000007Fu, 0xFFFFFF80u,       // signext8
                     0x00007FFFu, 0xFFFF8000u,       // signext16
                     0x12340000u, 0xABCD0000u,       // zero-padded half
                     0x007F0080u, 0xFF80007Fu,       // signext halves
                     0x5A5A5A5Au, 0x01010101u,       // repeated bytes
                     0xDEADBEEFu, 0x7FC00000u,       // uncompressed/NaN
                     0x80000000u, 0x00000000u});     // -0.0f, zero
    Rng rng(123);
    for (int r = 0; r < 32; r++) {
        std::vector<uint32_t> line(16);
        for (auto &w : line)
            w = rng.chance(0.3)
                    ? 0u
                    : static_cast<uint32_t>(rng.next64());
        lines.push_back(line);
    }
    for (simd::Backend b : nativeBackends()) {
        simd::setBackend(b);
        for (const auto &line : lines) {
            uint8_t raw[64];
            std::memcpy(raw, line.data(), 64);
            uint8_t bits[16];
            uint16_t zmask = 0;
            if (!simd::fpcBitsLine(raw, bits, zmask))
                continue;  // backend has no fpc kernel (avx2)
            for (int w = 0; w < 16; w++) {
                const uint32_t word = line[static_cast<size_t>(w)];
                EXPECT_EQ((zmask >> w) & 1, word == 0 ? 1 : 0);
                if (word != 0) {
                    EXPECT_EQ(bits[w],
                              fpcPayloadBits(fpcClassify(word)))
                        << simd::backendName(b) << " word 0x"
                        << std::hex << word;
                }
            }
        }
    }
}

TEST(SimdDiff, GemmKernelsBitExact)
{
    BackendGuard guard;
    Rng rng(55);
    const size_t n = 37;  // deliberately not a multiple of 8/16
    std::vector<float> bv(n), cRef(n), cSimd(n), acc0(16);
    for (size_t i = 0; i < n; i++) {
        bv[i] = static_cast<float>(rng.gaussian());
        cRef[i] = cSimd[i] = static_cast<float>(rng.gaussian());
    }
    // Include a denormal scale: the kernels must not flush.
    for (float av : {1.5f, -0.33f, 1e-42f}) {
        for (simd::Backend b : nativeBackends()) {
            simd::setBackend(b);
            std::vector<float> c1 = cRef, c2 = cSimd;
            for (size_t j = 0; j < n; j++)
                c1[j] += av * bv[j];
            ASSERT_TRUE(simd::axpyF32(av, bv.data(), c2.data(), n));
            EXPECT_EQ(std::memcmp(c1.data(), c2.data(), n * 4), 0)
                << simd::backendName(b) << " av=" << av;
        }
    }

    const size_t plen = 29;
    std::vector<float> a(plen), bt(plen * 16);
    for (auto &x : a)
        x = static_cast<float>(rng.gaussian());
    for (auto &x : bt)
        x = static_cast<float>(rng.gaussian());
    for (simd::Backend b : nativeBackends()) {
        simd::setBackend(b);
        std::vector<float> accRef(16, 0.25f), accSimd(16, 0.25f);
        for (size_t p = 0; p < plen; p++)
            for (int l = 0; l < 16; l++)
                accRef[static_cast<size_t>(l)] +=
                    a[p] * bt[p * 16 + static_cast<size_t>(l)];
        ASSERT_TRUE(simd::dotPanel16F32(a.data(), bt.data(), plen,
                                        accSimd.data()));
        EXPECT_EQ(std::memcmp(accRef.data(), accSimd.data(), 64), 0)
            << simd::backendName(b);
    }
}

TEST(SimdDiff, ZcompRoundTripIdenticalAcrossBackends)
{
    // End-to-end: the full zcomps/zcompl byte streams must not depend
    // on the backend for any (ElemType, Ccf) combination.
    BackendGuard guard;
    for (int ti = 0; ti < numElemTypes; ti++) {
        auto t = static_cast<ElemType>(ti);
        for (Ccf ccf : {Ccf::EQZ, Ccf::LTEZ}) {
            for (const Vec512 &v : vectorCorpus(elemBytes(t))) {
                simd::setBackend(simd::Backend::Scalar);
                uint8_t streamRef[80];
                std::memset(streamRef, 0xCC, sizeof(streamRef));
                ZcompResult rRef =
                    zcompsInterleaved(v, t, ccf, streamRef);
                Vec512 outRef;
                zcomplInterleaved(streamRef, t, outRef);

                for (simd::Backend b : nativeBackends()) {
                    simd::setBackend(b);
                    uint8_t stream[80];
                    std::memset(stream, 0xCC, sizeof(stream));
                    ZcompResult r = zcompsInterleaved(v, t, ccf, stream);
                    EXPECT_EQ(r.header, rRef.header);
                    EXPECT_EQ(r.totalBytes, rRef.totalBytes);
                    EXPECT_EQ(std::memcmp(stream, streamRef,
                                          sizeof(stream)),
                              0)
                        << simd::backendName(b) << " "
                        << elemSuffix(t) << " " << ccfName(ccf);
                    Vec512 out;
                    zcomplInterleaved(stream, t, out);
                    EXPECT_TRUE(out == outRef);
                }
            }
        }
    }
}
