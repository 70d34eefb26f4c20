/**
 * @file
 * Runtime-dispatched SIMD backend for the simulator's hot loops.
 *
 * Design rules (enforced by zcomp_lint):
 *  - This header declares the backend API only; it must NOT include
 *    immintrin.h. The one and only immintrin.h include in the repo
 *    lives in src/common/simd.cc, where every vector kernel is a
 *    non-inline function compiled with an explicit target attribute.
 *  - Every kernel is an exact-behavior accelerator: given the same
 *    inputs it produces results bit-identical to the scalar reference
 *    loop at its call site. Kernels therefore return `bool` (or a
 *    sentinel) meaning "handled"; when the active backend has no
 *    vector path for the request, the caller runs its scalar loop.
 *    This keeps exactly one authoritative scalar implementation: the
 *    pre-existing code in the caller.
 *
 * Backend selection:
 *  - The active backend resolves once from the ZCOMP_SIMD environment
 *    variable (off | scalar | avx2 | avx512 | auto; default auto) and
 *    host CPU capability, and can be overridden programmatically with
 *    setBackend() (tests and the differential fuzzer do this).
 */

#ifndef ZCOMP_COMMON_SIMD_HH
#define ZCOMP_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace zcomp {
namespace simd {

enum class Backend : uint8_t
{
    Scalar = 0, //< reference loops at the call sites; always available
    Avx2 = 1,   //< 256-bit kernels for the widest-impact paths
    Avx512 = 2, //< full kernel set (F+BW+VL+DQ; no VBMI2 required)
};

/** Stable lowercase name ("scalar", "avx2", "avx512"). */
const char *backendName(Backend b);

/** True when the host CPU can execute kernels of this backend. */
bool backendSupported(Backend b);

/** Best backend the host supports (ignores ZCOMP_SIMD). */
Backend bestSupportedBackend();

/**
 * The backend all kernels dispatch on. First use resolves ZCOMP_SIMD
 * against host capability; later reads are lock-free.
 */
Backend activeBackend();

/**
 * Override the active backend (tests / fuzzing / bench). Fatal if the
 * host cannot execute it. Not thread-safe against concurrent kernels;
 * call only from single-threaded phases.
 */
void setBackend(Backend b);

/**
 * Parse a ZCOMP_SIMD-style name into a backend. Returns true and sets
 * `out` for off|scalar|avx2|avx512; "auto" maps to
 * bestSupportedBackend(). Unknown names return false.
 */
bool parseBackend(const char *name, Backend &out);

// ---------------------------------------------------------------------
// Kernels. All return whether the active backend handled the request;
// on `false` the caller must run its scalar reference loop.
// ---------------------------------------------------------------------

/**
 * Compute the zcomps keep-header of a 64-byte vector of `elemBytes`-
 * wide lanes: bit i set iff lane i is kept. Matches laneKept() on raw
 * lane bits: kept iff raw != 0, and additionally (for dropNonPositive
 * / LTEZ mode) the lane sign bit is clear.
 */
bool laneHeader(const uint8_t *vec, int elemBytes, bool dropNonPositive,
                uint64_t &header);

/**
 * Pack lanes of `vec` selected by `header` densely into dst (exact
 * byte moves, ascending lane order). dst must have room for
 * popcount(header) * elemBytes bytes; nothing beyond is written.
 */
bool packLanes(const uint8_t *vec, int elemBytes, uint64_t header,
               uint8_t *dst);

/**
 * Expand a dense payload into a 64-byte vector: lane i gets the next
 * payload element if header bit i is set, else zero. Reads exactly
 * popcount(header) * elemBytes payload bytes. `out` must be 64 bytes.
 */
bool unpackLanes(const uint8_t *payload, int elemBytes, uint64_t header,
                 uint8_t *out);

/**
 * FPC word classification for one 64-byte line (16 little-endian
 * 32-bit words): bits[w] = payload bits of the best non-zero-run FPC
 * class for word w (3-bit prefix excluded), zeroMask bit w = word w
 * is zero. The caller runs the zero-run state machine on zeroMask and
 * sums bits[w] (+3 prefix) for nonzero words.
 */
bool fpcBitsLine(const uint8_t *line, uint8_t *bits,
                 uint16_t &zeroMask);

/**
 * GEMM inner kernels. Both mirror the scalar loops bit-exactly:
 * separate IEEE multiply then add per lane (the build targets a
 * baseline ISA without FMA contraction), same accumulation order.
 */

/** c[j] += av * b[j] for j in [0, n). Caller keeps the av==0 skip. */
bool axpyF32(float av, const float *b, float *c, size_t n);

/**
 * acc[l] += sum_p a[p] * bt[p*16 + l] for l in [0,16), p ascending —
 * 16 independent dot products against a 16-column transposed panel.
 */
bool dotPanel16F32(const float *a, const float *bt, size_t plen,
                   float *acc);

} // namespace simd
} // namespace zcomp

#endif // ZCOMP_COMMON_SIMD_HH
