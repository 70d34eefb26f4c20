/**
 * @file
 * SIMD backend kernels. This is the ONLY translation unit in the repo
 * allowed to include immintrin.h (zcomp_lint enforces this). The rest
 * of the tree is compiled for the baseline ISA; every kernel here is
 * a non-inline function with an explicit target attribute, selected
 * at runtime via __builtin_cpu_supports.
 *
 * Bit-identity notes (each kernel mirrors a scalar reference loop):
 *  - laneHeader: laneKept() tests raw lane bits: EQZ keeps raw != 0
 *    (integer test), LTEZ keeps raw != 0 && sign-bit clear, which for
 *    an N-bit lane is exactly the signed integer compare lane > 0.
 *  - pack/unpack: exact byte moves; no lane is reinterpreted as FP.
 *  - axpyF32/dotPanel16F32: the build's baseline ISA has no FMA, so
 *    scalar code compiles to separate multiply + add; the kernels use
 *    separate _mm*_mul_ps / _mm*_add_ps in the same operand order and
 *    the same ascending accumulation order. GCC's mul/add intrinsics
 *    lower to plain vector operators, and target("avx512f") enables
 *    FMA, so this file is compiled with -ffp-contract=off (see the
 *    CMakeLists rule) to stop GCC fusing those pairs into vfmadd.
 */

#include "common/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hh"
#include "common/log.hh"

#if defined(__x86_64__) || defined(__i386__)
#define ZCOMP_SIMD_X86 1
// GCC's AVX-512 intrinsics expand through _mm512_undefined_epi32(),
// which trips -Wuninitialized when optimization inlines them (GCC
// PR105593); the value is immediately overwritten by the intrinsic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#else
#define ZCOMP_SIMD_X86 0
#endif

namespace zcomp {
namespace simd {

namespace {

#if ZCOMP_SIMD_X86

// ---------------------------------------------------------------- AVX2
// Lookup tables for 32-bit-lane compress/expand emulation (AVX2 has no
// compress instruction; we permute through an index table and store
// through a lane-count mask so no byte outside the payload is touched).
struct Avx2Tables
{
    alignas(32) int32_t packIdx[256][8] {};
    alignas(32) int32_t unpackIdx[256][8] {};
    alignas(32) int32_t laneMask[256][8] {};
    alignas(32) int32_t cntMask[9][8] {};

    constexpr Avx2Tables()
    {
        for (int m = 0; m < 256; m++) {
            int out = 0;
            for (int i = 0; i < 8; i++) {
                if ((m >> i) & 1) {
                    packIdx[m][out] = i;
                    unpackIdx[m][i] = out;
                    laneMask[m][i] = -1;
                    out++;
                }
            }
        }
        for (int c = 0; c <= 8; c++)
            for (int i = 0; i < c; i++)
                cntMask[c][i] = -1;
    }
};

constexpr Avx2Tables g_avx2;

/** Spread the low 4 bits of m to bit pairs: bit i -> bits 2i, 2i+1. */
constexpr uint32_t kPairExpand[16] = {
    0x00, 0x03, 0x0c, 0x0f, 0x30, 0x33, 0x3c, 0x3f,
    0xc0, 0xc3, 0xcc, 0xcf, 0xf0, 0xf3, 0xfc, 0xff,
};

__attribute__((target("avx2")))
uint64_t
laneHeaderAvx2(const uint8_t *vec, int elemBytes, bool dropNonPositive)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t header = 0;
    for (int h = 0; h < 2; h++) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vec + 32 * h));
        uint32_t bits;
        if (elemBytes == 4) {
            const __m256i cmp = dropNonPositive
                ? _mm256_cmpgt_epi32(v, zero)
                : _mm256_cmpeq_epi32(v, zero);
            bits = static_cast<uint32_t>(
                _mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
            if (!dropNonPositive)
                bits = ~bits & 0xffu;
            header |= static_cast<uint64_t>(bits) << (8 * h);
        } else { // elemBytes == 8
            const __m256i cmp = dropNonPositive
                ? _mm256_cmpgt_epi64(v, zero)
                : _mm256_cmpeq_epi64(v, zero);
            bits = static_cast<uint32_t>(
                _mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
            if (!dropNonPositive)
                bits = ~bits & 0xfu;
            header |= static_cast<uint64_t>(bits) << (4 * h);
        }
    }
    return header;
}

__attribute__((target("avx2")))
void
packLanes4Avx2(const uint8_t *vec, uint32_t header16, uint8_t *dst)
{
    for (int h = 0; h < 2; h++) {
        const uint32_t m = (header16 >> (8 * h)) & 0xffu;
        const int cnt = __builtin_popcount(m);
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vec + 32 * h));
        const __m256i idx = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(g_avx2.packIdx[m]));
        const __m256i packed = _mm256_permutevar8x32_epi32(v, idx);
        _mm256_maskstore_epi32(
            reinterpret_cast<int *>(dst),
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(g_avx2.cntMask[cnt])),
            packed);
        dst += static_cast<size_t>(cnt) * 4;
    }
}

__attribute__((target("avx2")))
void
unpackLanes4Avx2(const uint8_t *payload, uint32_t header16, uint8_t *out)
{
    for (int h = 0; h < 2; h++) {
        const uint32_t m = (header16 >> (8 * h)) & 0xffu;
        const int cnt = __builtin_popcount(m);
        const __m256i packed = _mm256_maskload_epi32(
            reinterpret_cast<const int *>(payload),
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(g_avx2.cntMask[cnt])));
        const __m256i idx = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(g_avx2.unpackIdx[m]));
        const __m256i spread = _mm256_and_si256(
            _mm256_permutevar8x32_epi32(packed, idx),
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(g_avx2.laneMask[m])));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 32 * h),
                            spread);
        payload += static_cast<size_t>(cnt) * 4;
    }
}

__attribute__((target("avx2")))
void
axpyF32Avx2(float av, const float *b, float *c, size_t n)
{
    const __m256 a = _mm256_set1_ps(av);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 prod = _mm256_mul_ps(a, _mm256_loadu_ps(b + j));
        _mm256_storeu_ps(c + j,
                         _mm256_add_ps(_mm256_loadu_ps(c + j), prod));
    }
    if (j < n) {
        const __m256i m = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(
                g_avx2.cntMask[n - j]));
        const __m256 bb = _mm256_maskload_ps(b + j, m);
        const __m256 cc = _mm256_maskload_ps(c + j, m);
        _mm256_maskstore_ps(c + j, m,
                            _mm256_add_ps(cc, _mm256_mul_ps(a, bb)));
    }
}

__attribute__((target("avx2")))
void
dotPanel16F32Avx2(const float *a, const float *bt, size_t plen,
                  float *acc)
{
    __m256 lo = _mm256_loadu_ps(acc);
    __m256 hi = _mm256_loadu_ps(acc + 8);
    for (size_t p = 0; p < plen; p++) {
        const __m256 ap = _mm256_set1_ps(a[p]);
        lo = _mm256_add_ps(lo, _mm256_mul_ps(ap,
                                             _mm256_loadu_ps(bt + p * 16)));
        hi = _mm256_add_ps(hi,
                           _mm256_mul_ps(ap,
                                         _mm256_loadu_ps(bt + p * 16 + 8)));
    }
    _mm256_storeu_ps(acc, lo);
    _mm256_storeu_ps(acc + 8, hi);
}

// -------------------------------------------------------------- AVX512

#define ZCOMP_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512dq"

__attribute__((target(ZCOMP_AVX512_TARGET)))
uint64_t
laneHeaderAvx512(const uint8_t *vec, int elemBytes, bool dropNonPositive)
{
    const __m512i v = _mm512_loadu_si512(vec);
    const __m512i zero = _mm512_setzero_si512();
    switch (elemBytes) {
      case 1:
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi8_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi8_mask(v, v));
      case 2:
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi16_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi16_mask(v, v));
      case 4:
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi32_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi32_mask(v, v));
      default: // 8
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi64_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi64_mask(v, v));
    }
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
packLanesAvx512(const uint8_t *vec, int elemBytes, uint64_t header,
                uint8_t *dst)
{
    const __m512i v = _mm512_loadu_si512(vec);
    // The compress-store memory forms write exactly popcount(mask)
    // elements, so nothing beyond the payload is touched.
    if (elemBytes == 4) {
        _mm512_mask_compressstoreu_epi32(
            dst, static_cast<__mmask16>(header), v);
    } else { // 8
        _mm512_mask_compressstoreu_epi64(
            dst, static_cast<__mmask8>(header), v);
    }
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
unpackLanesAvx512(const uint8_t *payload, int elemBytes, uint64_t header,
                  uint8_t *out)
{
    // The expand-load memory forms read exactly popcount(mask)
    // elements; masked-off lanes are zeroed, never loaded.
    __m512i v;
    if (elemBytes == 4) {
        v = _mm512_maskz_expandloadu_epi32(
            static_cast<__mmask16>(header), payload);
    } else { // 8
        v = _mm512_maskz_expandloadu_epi64(
            static_cast<__mmask8>(header), payload);
    }
    _mm512_storeu_si512(out, v);
}

/** Compress the even bits of x (positions 0,2,..,30) into bits 0..15. */
inline uint32_t
compressEvenBits(uint32_t x)
{
    x &= 0x55555555u;
    x = (x | (x >> 1)) & 0x33333333u;
    x = (x | (x >> 2)) & 0x0f0f0f0fu;
    x = (x | (x >> 4)) & 0x00ff00ffu;
    x = (x | (x >> 8)) & 0x0000ffffu;
    return x;
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
uint16_t
fpcBitsLineAvx512(const uint8_t *line, uint8_t *bits)
{
    const __m512i w = _mm512_loadu_si512(line);
    const __m512i zero = _mm512_setzero_si512();

    const __mmask16 zeroMask = _mm512_cmpeq_epi32_mask(w, zero);
    // fitsSignExt(w, k): value in [-2^(k-1), 2^(k-1)-1], i.e.
    // (uint32)(w + 2^(k-1)) < 2^k.
    const __mmask16 se4 = _mm512_cmplt_epu32_mask(
        _mm512_add_epi32(w, _mm512_set1_epi32(8)),
        _mm512_set1_epi32(16));
    const __mmask16 se8 = _mm512_cmplt_epu32_mask(
        _mm512_add_epi32(w, _mm512_set1_epi32(128)),
        _mm512_set1_epi32(256));
    const __mmask16 se16 = _mm512_cmplt_epu32_mask(
        _mm512_add_epi32(w, _mm512_set1_epi32(32768)),
        _mm512_set1_epi32(65536));
    const __mmask16 zpHalf = _mm512_cmpeq_epi32_mask(
        _mm512_and_si512(w, _mm512_set1_epi32(0xffff)), zero);
    // Both 16-bit halves of each word fit in a sign-extended byte.
    const uint32_t half8 = static_cast<uint32_t>(_mm512_cmplt_epu16_mask(
        _mm512_add_epi16(w, _mm512_set1_epi16(128)),
        _mm512_set1_epi16(256)));
    const __mmask16 seHalves = static_cast<__mmask16>(
        compressEvenBits(half8 & (half8 >> 1)));
    // All four bytes equal <=> word unchanged by an 8-bit rotate.
    // (Rotate spelled as shift+or: GCC's _mm512_rol_epi32 goes through
    // _mm512_undefined_epi32 and trips -Wuninitialized under -Werror.)
    const __m512i rot8 = _mm512_or_si512(_mm512_slli_epi32(w, 8),
                                         _mm512_srli_epi32(w, 24));
    const __mmask16 repeated = _mm512_cmpeq_epi32_mask(w, rot8);

    // Blend payload-bit counts lowest-priority first so the highest
    // priority class wins (priority: se4 > se8 > se16 > zpHalf >
    // seHalves > repeated > uncompressed; zero handled by the caller).
    __m512i b = _mm512_set1_epi32(32);
    b = _mm512_mask_mov_epi32(b, repeated, _mm512_set1_epi32(8));
    b = _mm512_mask_mov_epi32(b, seHalves, _mm512_set1_epi32(16));
    b = _mm512_mask_mov_epi32(b, zpHalf, _mm512_set1_epi32(16));
    b = _mm512_mask_mov_epi32(b, se16, _mm512_set1_epi32(16));
    b = _mm512_mask_mov_epi32(b, se8, _mm512_set1_epi32(8));
    b = _mm512_mask_mov_epi32(b, se4, _mm512_set1_epi32(4));
    _mm512_mask_cvtepi32_storeu_epi8(bits, 0xffff, b);
    return static_cast<uint16_t>(zeroMask);
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
axpyF32Avx512(float av, const float *b, float *c, size_t n)
{
    const __m512 a = _mm512_set1_ps(av);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 prod = _mm512_mul_ps(a, _mm512_loadu_ps(b + j));
        _mm512_storeu_ps(c + j,
                         _mm512_add_ps(_mm512_loadu_ps(c + j), prod));
    }
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 bb = _mm512_maskz_loadu_ps(m, b + j);
        const __m512 cc = _mm512_maskz_loadu_ps(m, c + j);
        _mm512_mask_storeu_ps(c + j, m,
                              _mm512_add_ps(cc, _mm512_mul_ps(a, bb)));
    }
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
dotPanel16F32Avx512(const float *a, const float *bt, size_t plen,
                    float *acc)
{
    __m512 s = _mm512_loadu_ps(acc);
    for (size_t p = 0; p < plen; p++) {
        s = _mm512_add_ps(
            s, _mm512_mul_ps(_mm512_set1_ps(a[p]),
                             _mm512_loadu_ps(bt + p * 16)));
    }
    _mm512_storeu_ps(acc, s);
}

#endif // ZCOMP_SIMD_X86

std::atomic<int> g_backend{-1};

Backend
resolveBackend()
{
    const char *env = std::getenv("ZCOMP_SIMD");
    if (!env || !*env)
        return bestSupportedBackend();
    Backend req;
    if (!parseBackend(env, req)) {
        warn("ZCOMP_SIMD=%s not recognized (want off|scalar|avx2|"
             "avx512|auto); using auto",
             env);
        return bestSupportedBackend();
    }
    if (!backendSupported(req)) {
        warn("ZCOMP_SIMD=%s unsupported on this host; using %s", env,
             backendName(bestSupportedBackend()));
        return bestSupportedBackend();
    }
    return req;
}

} // namespace

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar: return "scalar";
      case Backend::Avx2: return "avx2";
      case Backend::Avx512: return "avx512";
    }
    return "?";
}

bool
backendSupported(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return true;
      case Backend::Avx2:
#if ZCOMP_SIMD_X86
        return __builtin_cpu_supports("avx2");
#else
        return false;
#endif
      case Backend::Avx512:
#if ZCOMP_SIMD_X86
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx512dq");
#else
        return false;
#endif
    }
    return false;
}

Backend
bestSupportedBackend()
{
    if (backendSupported(Backend::Avx512))
        return Backend::Avx512;
    if (backendSupported(Backend::Avx2))
        return Backend::Avx2;
    return Backend::Scalar;
}

Backend
activeBackend()
{
    int b = g_backend.load(std::memory_order_relaxed);
    if (b < 0) {
        int resolved = static_cast<int>(resolveBackend());
        int expected = -1;
        g_backend.compare_exchange_strong(expected, resolved);
        b = g_backend.load(std::memory_order_relaxed);
    }
    return static_cast<Backend>(b);
}

void
setBackend(Backend b)
{
    ZCOMP_CHECK(backendSupported(b),
                "SIMD backend %s not supported on this host",
                backendName(b));
    g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

bool
parseBackend(const char *name, Backend &out)
{
    if (!name)
        return false;
    const auto is = [name](const char *s) {
        return std::strcmp(name, s) == 0;
    };
    if (is("off") || is("scalar") || is("0")) {
        out = Backend::Scalar;
        return true;
    }
    if (is("avx2")) {
        out = Backend::Avx2;
        return true;
    }
    if (is("avx512")) {
        out = Backend::Avx512;
        return true;
    }
    if (is("auto") || is("on") || is("1")) {
        out = bestSupportedBackend();
        return true;
    }
    return false;
}


bool
laneHeader(const uint8_t *vec, int elemBytes, bool dropNonPositive,
           uint64_t &header)
{
#if ZCOMP_SIMD_X86
    switch (activeBackend()) {
      case Backend::Avx512:
        header = laneHeaderAvx512(vec, elemBytes, dropNonPositive);
        return true;
      case Backend::Avx2:
        if (elemBytes == 4 || elemBytes == 8) {
            header = laneHeaderAvx2(vec, elemBytes, dropNonPositive);
            return true;
        }
        break;
      default:
        break;
    }
#else
    (void)vec; (void)elemBytes; (void)dropNonPositive; (void)header;
#endif
    return false;
}

bool
packLanes(const uint8_t *vec, int elemBytes, uint64_t header,
          uint8_t *dst)
{
#if ZCOMP_SIMD_X86
    switch (activeBackend()) {
      case Backend::Avx512:
        // 1- and 2-byte lanes need VBMI2 compress, which we do not
        // require; those widths stay on the scalar reference.
        if (elemBytes == 4 || elemBytes == 8) {
            packLanesAvx512(vec, elemBytes, header, dst);
            return true;
        }
        break;
      case Backend::Avx2:
        if (elemBytes == 4) {
            packLanes4Avx2(vec, static_cast<uint32_t>(header), dst);
            return true;
        }
        if (elemBytes == 8) {
            // Treat each 64-bit lane as an aligned pair of 32-bit
            // lanes; the pair-expanded header selects both halves.
            const uint32_t m =
                kPairExpand[header & 0xf] |
                (kPairExpand[(header >> 4) & 0xf] << 8);
            packLanes4Avx2(vec, m, dst);
            return true;
        }
        break;
      default:
        break;
    }
#else
    (void)vec; (void)elemBytes; (void)header; (void)dst;
#endif
    return false;
}

bool
unpackLanes(const uint8_t *payload, int elemBytes, uint64_t header,
            uint8_t *out)
{
#if ZCOMP_SIMD_X86
    switch (activeBackend()) {
      case Backend::Avx512:
        if (elemBytes == 4 || elemBytes == 8) {
            unpackLanesAvx512(payload, elemBytes, header, out);
            return true;
        }
        break;
      case Backend::Avx2:
        if (elemBytes == 4) {
            unpackLanes4Avx2(payload, static_cast<uint32_t>(header),
                             out);
            return true;
        }
        if (elemBytes == 8) {
            const uint32_t m =
                kPairExpand[header & 0xf] |
                (kPairExpand[(header >> 4) & 0xf] << 8);
            unpackLanes4Avx2(payload, m, out);
            return true;
        }
        break;
      default:
        break;
    }
#else
    (void)payload; (void)elemBytes; (void)header; (void)out;
#endif
    return false;
}

bool
fpcBitsLine(const uint8_t *line, uint8_t *bits, uint16_t &zeroMask)
{
#if ZCOMP_SIMD_X86
    if (activeBackend() == Backend::Avx512) {
        zeroMask = fpcBitsLineAvx512(line, bits);
        return true;
    }
#else
    (void)line; (void)bits; (void)zeroMask;
#endif
    return false;
}

bool
axpyF32(float av, const float *b, float *c, size_t n)
{
#if ZCOMP_SIMD_X86
    switch (activeBackend()) {
      case Backend::Avx512:
        axpyF32Avx512(av, b, c, n);
        return true;
      case Backend::Avx2:
        axpyF32Avx2(av, b, c, n);
        return true;
      default:
        break;
    }
#else
    (void)av; (void)b; (void)c; (void)n;
#endif
    return false;
}

bool
dotPanel16F32(const float *a, const float *bt, size_t plen, float *acc)
{
#if ZCOMP_SIMD_X86
    switch (activeBackend()) {
      case Backend::Avx512:
        dotPanel16F32Avx512(a, bt, plen, acc);
        return true;
      case Backend::Avx2:
        dotPanel16F32Avx2(a, bt, plen, acc);
        return true;
      default:
        break;
    }
#else
    (void)a; (void)bt; (void)plen; (void)acc;
#endif
    return false;
}

} // namespace simd
} // namespace zcomp

#if ZCOMP_SIMD_X86
#pragma GCC diagnostic pop
#endif
