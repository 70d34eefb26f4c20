/**
 * @file
 * Adversarial 64-byte lines for the Figure 15 codec differential
 * tests: random words at a given sparsity, dictionary-heavy lines
 * (repeated words, words sharing their upper 24 bits), FPC
 * sign-extension boundary words and fp32 specials (-0.0f, NaN
 * payloads, denormals), deterministic per seed; plus the backend list
 * and guard the SIMD differential tests share.
 */

#ifndef ZCOMP_TESTS_CODEC_LINES_HH
#define ZCOMP_TESTS_CODEC_LINES_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

namespace zcomp {
namespace codec_lines {

enum class Kind
{
    Random,     //!< full-entropy words
    Repeated,   //!< three values per line: dictionary hits and evictions
    SharedHigh, //!< two upper-24-bit prefixes per line, random low byte
    Boundary,   //!< FPC sign-extension edges
    Special,    //!< -0.0f, infinities, NaN payloads, denormals
    Mixed,      //!< each word from any of the above
};

constexpr Kind allKinds[] = {Kind::Random, Kind::Repeated,
                             Kind::SharedHigh, Kind::Boundary,
                             Kind::Special, Kind::Mixed};

inline const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Random: return "random";
      case Kind::Repeated: return "repeated";
      case Kind::SharedHigh: return "shared-high";
      case Kind::Boundary: return "boundary";
      case Kind::Special: return "special";
      case Kind::Mixed: return "mixed";
    }
    return "?";
}

/** Words on either side of every FPC significance-class edge. */
inline uint32_t
boundaryWord(Rng &rng)
{
    static const uint32_t words[] = {
        7u, 8u, 0xFFFFFFF8u, 0xFFFFFFF7u,           // +-8
        127u, 128u, 0xFFFFFF80u, 0xFFFFFF7Fu,       // +-128
        32767u, 32768u, 0xFFFF8000u, 0xFFFF7FFFu,   // +-32768
        0xFFFF0000u, 0x0000FFFFu, 0x00010000u,      // half patterns
        0x007F0080u, 0x00800080u, 0xFF80007Fu,      // 8-bit halves
        0xABABABABu, 0x01010101u, 0xFFFFFFFFu, 1u,  // repeated bytes
    };
    return words[rng.below(sizeof(words) / sizeof(words[0]))];
}

/** fp32 specials: signed zero, infinities, NaNs, denormals. */
inline uint32_t
specialWord(Rng &rng)
{
    switch (rng.below(6)) {
      case 0:
        return 0x80000000u;                          // -0.0f
      case 1:
        return rng.chance(0.5) ? 0x7F800000u : 0xFF800000u;
      case 2:   // NaN with a random nonzero payload, either sign
        return (rng.chance(0.5) ? 0x7F800000u : 0xFF800000u) |
               (1u + static_cast<uint32_t>(rng.below(0x7FFFFF)));
      case 3:   // denormal, either sign
        return (rng.chance(0.5) ? 0u : 0x80000000u) |
               (1u + static_cast<uint32_t>(rng.below(0x7FFFFF)));
      case 4:
        return 0x7FC00000u;                          // canonical qNaN
      default:
        return 0x00000001u;                          // smallest denormal
    }
}

/**
 * `lines` consecutive lines of `kind`; each word is zero with
 * probability `sparsity`.
 */
inline std::vector<uint8_t>
makeLines(size_t lines, Kind kind, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(lines * 64);
    for (size_t l = 0; l < lines; l++) {
        const uint32_t pool[3] = {static_cast<uint32_t>(rng.next64()),
                                  static_cast<uint32_t>(rng.next64()),
                                  static_cast<uint32_t>(rng.next64())};
        for (int w = 0; w < 16; w++) {
            uint32_t word = 0;
            Kind k = kind;
            if (k == Kind::Mixed)
                k = allKinds[rng.below(5)];
            if (!rng.chance(sparsity)) {
                switch (k) {
                  case Kind::Repeated:
                    word = pool[rng.below(3)];
                    break;
                  case Kind::SharedHigh:
                    word = (pool[rng.below(2)] & 0xFFFFFF00u) |
                           static_cast<uint32_t>(rng.below(256));
                    break;
                  case Kind::Boundary:
                    word = boundaryWord(rng);
                    break;
                  case Kind::Special:
                    word = specialWord(rng);
                    break;
                  default:
                    word = static_cast<uint32_t>(rng.next64());
                    break;
                }
            }
            std::memcpy(out.data() + l * 64 + static_cast<size_t>(w) * 4,
                        &word, 4);
        }
    }
    return out;
}

/** Every backend this host can run, scalar first. */
inline std::vector<simd::Backend>
supportedBackends()
{
    std::vector<simd::Backend> v;
    for (simd::Backend b : {simd::Backend::Scalar, simd::Backend::Avx2,
                            simd::Backend::Avx512})
        if (simd::backendSupported(b))
            v.push_back(b);
    return v;
}

/** Restore the entry backend when the scope ends. */
class BackendGuard
{
  public:
    BackendGuard() : saved_(simd::activeBackend()) {}
    ~BackendGuard() { simd::setBackend(saved_); }

  private:
    simd::Backend saved_;
};

} // namespace codec_lines
} // namespace zcomp

#endif // ZCOMP_TESTS_CODEC_LINES_HH
