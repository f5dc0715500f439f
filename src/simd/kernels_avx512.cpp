// AVX-512 level: the AVX2 table (dispatch.cpp) with one kernel of its own,
// resample_sum8, which runs 8 bootstrap replicates per pass in one zmm
// state set. As in kernels_avx2.cpp, its 64-bit lanes are independent
// generator streams, each running the scalar spec's exact draws and adds.
#include "simd/kernels.h"

#if DRE_SIMD_X86

#include <immintrin.h>

#include <bit>

#include "simd/xoshiro.h"

#define DRE_TARGET_AVX512 __attribute__((target("avx512f")))
#define DRE_TARGET_AVX512_INLINE \
    __attribute__((target("avx512f"), always_inline)) inline

namespace dre::simd::detail {
namespace {

// GCC's plain forms of the shift, rotate, multiply and gather intrinsics
// merge into _mm512_undefined_*(), which -Wmaybe-uninitialized flags once
// they are inlined; the zero-masked all-lanes forms compute the same
// values.
constexpr __mmask8 kAllLanes = 0xff;

template <int K>
DRE_TARGET_AVX512_INLINE __m512i shl8(__m512i x) {
    return _mm512_maskz_slli_epi64(kAllLanes, x, K);
}

template <int K>
DRE_TARGET_AVX512_INLINE __m512i shr8(__m512i x) {
    return _mm512_maskz_srli_epi64(kAllLanes, x, K);
}

template <int K>
DRE_TARGET_AVX512_INLINE __m512i rotl8(__m512i x) {
    return _mm512_maskz_rol_epi64(kAllLanes, x, K);
}

// One xoshiro256** step on 8 streams (xoshiro.h): returns the outputs and
// advances s. AVX-512F has no 64-bit multiply-low, so the ×5 and ×9 stay
// shift-adds (exact mod 2^64); both rotates are one VPROLQ.
DRE_TARGET_AVX512_INLINE __m512i xoshiro_next8(__m512i s[4]) {
    const __m512i times5 = _mm512_add_epi64(shl8<2>(s[1]), s[1]);
    const __m512i r = rotl8<7>(times5);
    const __m512i result = _mm512_add_epi64(shl8<3>(r), r);
    const __m512i t = shl8<17>(s[1]);
    s[2] = _mm512_xor_si512(s[2], s[0]);
    s[3] = _mm512_xor_si512(s[3], s[1]);
    s[1] = _mm512_xor_si512(s[1], s[2]);
    s[0] = _mm512_xor_si512(s[0], s[3]);
    s[2] = _mm512_xor_si512(s[2], t);
    s[3] = rotl8<45>(s[3]);
    return result;
}

// The rare lanes (about 2^-32 of draws) whose low word might fall under
// the threshold: spill, let lemire_finish (xoshiro.h) run the exact
// rejection test and any redraws from each flagged lane's own state, and
// reload. Everything passes by value, so the caller's state never has its
// address taken and the compiler can keep it in registers.
struct Fixup8 {
    __m512i s[4];
    __m512i idx;
};

DRE_TARGET_AVX512 __attribute__((noinline, cold)) Fixup8
lemire_fixup8(__m512i s0, __m512i s1, __m512i s2, __m512i s3, __m512i x,
              __m512i idx, unsigned flagged, std::uint64_t n) {
    alignas(64) std::uint64_t words[4][8], xs[8], out[8];
    _mm512_store_si512(words[0], s0);
    _mm512_store_si512(words[1], s1);
    _mm512_store_si512(words[2], s2);
    _mm512_store_si512(words[3], s3);
    _mm512_store_si512(xs, x);
    _mm512_store_si512(out, idx);
    for (; flagged != 0; flagged &= flagged - 1) {
        const int l = std::countr_zero(flagged);
        std::uint64_t lane[4] = {words[0][l], words[1][l], words[2][l],
                                 words[3][l]};
        out[l] = lemire_finish(lane, n, xs[l]);
        for (int w = 0; w < 4; ++w) words[w][l] = lane[w];
    }
    Fixup8 fixed;
    for (int w = 0; w < 4; ++w) fixed.s[w] = _mm512_load_si512(words[w]);
    fixed.idx = _mm512_load_si512(out);
    return fixed;
}

// One draw on 8 streams: the gathered values[uniform_index(m)] per lane.
// Lemire's high word of x * m (m < 2^32) comes from two 32x32->64
// products, as in lemire_high4 (kernels_avx2.cpp): the 128-bit product's
// low word can fall under the threshold 2^64 mod m only when the low half
// of `mid` is zero, and exactly those lanes are flagged. kPow2: m = 2^k,
// so Lemire never rejects and the high word is x >> (64 - k); for m = 1
// that count is 64, which VPSRLQ defines to produce 0.
template <bool kPow2>
DRE_TARGET_AVX512_INLINE __m512d draw8(const double* values, __m512i s[4],
                                       std::uint64_t m, __m512i n,
                                       __m128i pow2_shift) {
    const __m512i x = xoshiro_next8(s);
    __m512i idx;
    if constexpr (kPow2) {
        idx = _mm512_maskz_srl_epi64(kAllLanes, x, pow2_shift);
    } else {
        const __m512i lo_n = _mm512_maskz_mul_epu32(kAllLanes, x, n);
        const __m512i hi_n = _mm512_maskz_mul_epu32(kAllLanes, shr8<32>(x), n);
        const __m512i mid = _mm512_add_epi64(hi_n, shr8<32>(lo_n));
        idx = shr8<32>(mid);
        const __mmask8 flagged =
            _mm512_testn_epi64_mask(mid, _mm512_set1_epi64(0xffffffff));
        if (flagged != 0) [[unlikely]] {
            const Fixup8 fixed =
                lemire_fixup8(s[0], s[1], s[2], s[3], x, idx, flagged, m);
            for (int w = 0; w < 4; ++w) s[w] = fixed.s[w];
            idx = fixed.idx;
        }
    }
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAllLanes, idx,
                                    values, 8);
}

// Streams states[0 .. 32) through all m draws. Lane l of a_j holds lane j
// of stream l's canonical sum; the draw loop is unrolled by 8 so draw i
// adds into a_(i mod 8) with every accumulator in a register.
template <bool kPow2>
DRE_TARGET_AVX512 void resample8(const double* values, std::size_t m,
                                 const std::uint64_t* states, double* out) {
    alignas(64) std::uint64_t words[4][8];
    for (int l = 0; l < 8; ++l)
        for (int w = 0; w < 4; ++w) words[w][l] = states[4 * l + w];
    __m512i s[4];
    for (int w = 0; w < 4; ++w) s[w] = _mm512_load_si512(words[w]);
    const __m512i n = _mm512_set1_epi64(static_cast<long long>(m));
    const __m128i pow2_shift =
        _mm_cvtsi64_si128(kPow2 ? 64 - std::countr_zero(m) : 0);
    const auto draw = [&]() DRE_TARGET_AVX512 {
        return draw8<kPow2>(values, s, m, n, pow2_shift);
    };
    __m512d a0 = _mm512_setzero_pd(), a1 = a0, a2 = a0, a3 = a0, a4 = a0,
            a5 = a0, a6 = a0, a7 = a0;
    std::size_t i = 0;
    for (; i + 8 <= m; i += 8) {
        a0 = _mm512_add_pd(a0, draw());
        a1 = _mm512_add_pd(a1, draw());
        a2 = _mm512_add_pd(a2, draw());
        a3 = _mm512_add_pd(a3, draw());
        a4 = _mm512_add_pd(a4, draw());
        a5 = _mm512_add_pd(a5, draw());
        a6 = _mm512_add_pd(a6, draw());
        a7 = _mm512_add_pd(a7, draw());
    }
    // Fewer than 8 draws left: draw i lands in a_(i - (m & ~7)).
    const std::size_t tail = m - i;
    if (tail > 0) a0 = _mm512_add_pd(a0, draw());
    if (tail > 1) a1 = _mm512_add_pd(a1, draw());
    if (tail > 2) a2 = _mm512_add_pd(a2, draw());
    if (tail > 3) a3 = _mm512_add_pd(a3, draw());
    if (tail > 4) a4 = _mm512_add_pd(a4, draw());
    if (tail > 5) a5 = _mm512_add_pd(a5, draw());
    if (tail > 6) a6 = _mm512_add_pd(a6, draw());
    // The canonical tree, lane-wise: lane l of the result is stream l's
    // ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
    const __m512d low = _mm512_add_pd(_mm512_add_pd(a0, a1),
                                      _mm512_add_pd(a2, a3));
    const __m512d high = _mm512_add_pd(_mm512_add_pd(a4, a5),
                                       _mm512_add_pd(a6, a7));
    _mm512_storeu_pd(out, _mm512_add_pd(low, high));
}

} // namespace

DRE_TARGET_AVX512
void resample_sum8_avx512(const double* values, std::size_t m,
                          const std::uint64_t* states, std::size_t streams,
                          double* out) {
    const bool pow2 = std::has_single_bit(m);
    std::size_t s = 0;
    for (; s + 8 <= streams; s += 8) {
        if (pow2)
            resample8<true>(values, m, states + 4 * s, out + s);
        else
            resample8<false>(values, m, states + 4 * s, out + s);
    }
    // Fewer than 8 streams left: the scalar spec finishes them.
    resample_sum8_scalar(values, m, states + 4 * s, streams - s, out + s);
}

} // namespace dre::simd::detail

#endif // DRE_SIMD_X86
