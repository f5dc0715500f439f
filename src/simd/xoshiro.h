// The repo's one xoshiro256** generator step and Lemire draw.
//
// stats::Rng (the generator every seeded result flows from) and the scalar
// spec of the resample_sum8 kernel both call these, so the generator is
// defined once and the vector levels have a single definition to match.
// Header-only and inline: the kernel's inner loop and Rng's out-of-line
// members compile the same code.
#ifndef DRE_SIMD_XOSHIRO_H
#define DRE_SIMD_XOSHIRO_H

#include <cstdint>

namespace dre::simd {

inline std::uint64_t rotl64(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

// xoshiro256** (Blackman & Vigna): returns the next output of the
// generator whose state is s[0..3] and advances that state.
inline std::uint64_t xoshiro_next(std::uint64_t s[4]) noexcept {
    const std::uint64_t result = rotl64(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl64(s[3], 45);
    return result;
}

// Lemire's unbiased draw of an integer in [0, n), n > 0, whose first
// output `x` was already taken from s: the high word of x * n, redrawn
// from s while the low word falls under the threshold 2^64 mod n. The
// resample kernels' vector levels call this for the rare lane that needs
// the rejection test, after stepping every lane once.
inline std::uint64_t lemire_finish(std::uint64_t s[4], std::uint64_t n,
                                   std::uint64_t x) noexcept {
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (lo < threshold) {
            x = xoshiro_next(s);
            m = static_cast<__uint128_t>(x) * n;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

// One uniform index in [0, n), n > 0 — stats::Rng::uniform_index.
inline std::uint64_t lemire_index(std::uint64_t s[4], std::uint64_t n) noexcept {
    return lemire_finish(s, n, xoshiro_next(s));
}

} // namespace dre::simd

#endif // DRE_SIMD_XOSHIRO_H
