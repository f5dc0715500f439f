// AVX2 level: 2 × 4-lane double kernels (ymm k holds lanes {4k .. 4k+3});
// the table's CRC is the hardware one in kernels_crc32c.cpp. Same
// canonical 8-lane arithmetic as the scalar spec — see kernels.h.
// resample_sum8 is the exception in layout only: its 64-bit lanes are 8
// independent generator streams, each running the scalar spec's exact
// draws and adds.
#include "simd/kernels.h"

#if DRE_SIMD_X86

#include <immintrin.h>

#include <bit>

#include "simd/xoshiro.h"

#define DRE_TARGET_AVX2 __attribute__((target("avx2")))

namespace dre::simd::detail {

DRE_TARGET_AVX2
std::size_t l2sq_scan_avx2(const double* blocks, std::size_t num_blocks,
                           std::size_t dims, const double* query, double worst,
                           double* cand_d2, std::uint32_t* cand_idx) {
    const __m256d worst_v = _mm256_set1_pd(worst);
    std::size_t count = 0;
    std::size_t b = 0;
    // Paired blocks (see the scalar spec): 4 independent accumulator
    // chains instead of 2, which halves the vaddpd latency floor this
    // loop is bound by. Abandon predicate covers all 16 lanes of the pair.
    for (; b + 2 <= num_blocks; b += 2) {
        const double* blk0 = blocks + b * dims * 8;
        const double* blk1 = blk0 + dims * 8;
        __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
        __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
        bool aborted = false;
        for (std::size_t d = 0; d < dims; ++d) {
            const __m256d q = _mm256_set1_pd(query[d]);
            const double* c0 = blk0 + d * 8;
            const double* c1 = blk1 + d * 8;
            const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(c0), q);
            const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(c0 + 4), q);
            const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(c1), q);
            const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(c1 + 4), q);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
            acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
            acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
            if ((d & (kAbortStride - 1)) == kAbortStride - 1) {
                const int m = _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc0, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc1, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc2, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc3, worst_v, _CMP_GT_OQ));
                if (m == 0xf) {
                    aborted = true;
                    break;
                }
            }
        }
        if (aborted) continue;
        const unsigned m0 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc0, worst_v, _CMP_LE_OQ)));
        const unsigned m1 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc1, worst_v, _CMP_LE_OQ)));
        const unsigned m2 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc2, worst_v, _CMP_LE_OQ)));
        const unsigned m3 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc3, worst_v, _CMP_LE_OQ)));
        unsigned mask = m0 | (m1 << 4) | (m2 << 8) | (m3 << 12);
        if (mask == 0) continue;
        double lanes[16];
        _mm256_storeu_pd(lanes + 0, acc0);
        _mm256_storeu_pd(lanes + 4, acc1);
        _mm256_storeu_pd(lanes + 8, acc2);
        _mm256_storeu_pd(lanes + 12, acc3);
        do {
            const int lane = std::countr_zero(mask);
            cand_d2[count] = lanes[lane];
            cand_idx[count] = static_cast<std::uint32_t>(b * 8 + lane);
            ++count;
            mask &= mask - 1;
        } while (mask != 0);
    }
    for (; b < num_blocks; ++b) {
        const double* block = blocks + b * dims * 8;
        __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
        bool aborted = false;
        for (std::size_t d = 0; d < dims; ++d) {
            const __m256d q = _mm256_set1_pd(query[d]);
            const double* col = block + d * 8;
            const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(col), q);
            const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(col + 4), q);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
            // Strided abandon, same predicate as the scalar spec.
            if ((d & (kAbortStride - 1)) == kAbortStride - 1) {
                const int m = _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc0, worst_v, _CMP_GT_OQ)) &
                              _mm256_movemask_pd(
                                  _mm256_cmp_pd(acc1, worst_v, _CMP_GT_OQ));
                if (m == 0xf) {
                    aborted = true;
                    break;
                }
            }
        }
        if (aborted) continue;
        // Candidate mask: ordered LE per lane (NaN lanes never qualify),
        // ymm k holding lanes {4k .. 4k+3}.
        const unsigned m0 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc0, worst_v, _CMP_LE_OQ)));
        const unsigned m1 = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc1, worst_v, _CMP_LE_OQ)));
        unsigned mask = m0 | (m1 << 4);
        if (mask == 0) continue;
        double lanes[8];
        _mm256_storeu_pd(lanes + 0, acc0);
        _mm256_storeu_pd(lanes + 4, acc1);
        do {
            const int lane = std::countr_zero(mask);
            cand_d2[count] = lanes[lane];
            cand_idx[count] = static_cast<std::uint32_t>(b * 8 + lane);
            ++count;
            mask &= mask - 1;
        } while (mask != 0);
    }
    return count;
}

DRE_TARGET_AVX2
double weighted_sum_skip_zero_avx2(const double* w, const double* x,
                                   std::size_t n, std::uint64_t* skips) {
    const __m256d zero = _mm256_setzero_pd();
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    std::uint64_t zeros = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d w0 = _mm256_loadu_pd(w + i);
        const __m256d w1 = _mm256_loadu_pd(w + i + 4);
        // Zero-weight lanes are masked to +0.0 AFTER the multiply, so a
        // non-finite x under zero weight contributes exactly +0.0 — the
        // value the scalar skip produces (see simd.h). NEQ_UQ is
        // unordered-or-unequal: a NaN weight counts as nonzero, matching
        // the scalar `w != 0.0` path; EQ_OQ is ordered, so NaN weights are
        // not counted as skips either.
        const __m256d nz0 = _mm256_cmp_pd(w0, zero, _CMP_NEQ_UQ);
        const __m256d nz1 = _mm256_cmp_pd(w1, zero, _CMP_NEQ_UQ);
        acc0 = _mm256_add_pd(
            acc0, _mm256_and_pd(nz0, _mm256_mul_pd(w0, _mm256_loadu_pd(x + i))));
        acc1 = _mm256_add_pd(
            acc1,
            _mm256_and_pd(nz1, _mm256_mul_pd(w1, _mm256_loadu_pd(x + i + 4))));
        const int eq =
            _mm256_movemask_pd(_mm256_cmp_pd(w0, zero, _CMP_EQ_OQ)) |
            _mm256_movemask_pd(_mm256_cmp_pd(w1, zero, _CMP_EQ_OQ)) << 4;
        zeros += static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(eq)));
    }
    double lanes[8];
    _mm256_storeu_pd(lanes + 0, acc0);
    _mm256_storeu_pd(lanes + 4, acc1);
    weighted_tail(lanes, w, x, i, n, zeros);
    if (skips != nullptr) *skips += zeros;
    return reduce8(lanes);
}

// --- resample_sum8: 8 bootstrap replicates per pass --------------------------
//
// Lanes are replicates, not elements: 64-bit lane l of half h (ymm pair)
// carries stream 4h + l's generator state, its current index and its 8
// running lane sums (acc[h][j] holds lane j of every stream in the half),
// so each stream executes exactly the scalar spec's sequence of draws and
// adds.

namespace {

// Streams per resample8 pass: one per 64-bit lane of two ymm registers.
constexpr std::size_t kResampleStreams = 8;

// One xoshiro256** step on 4 streams (xoshiro.h): returns the outputs and
// advances s. AVX2 has no 64-bit multiply-low, so the ×5 and ×9 become
// shift-adds (exact mod 2^64).
template <int K>
DRE_TARGET_AVX2 inline __m256i rotl4(__m256i x) {
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
}

DRE_TARGET_AVX2
inline __m256i xoshiro_next4(__m256i s[4]) {
    const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s[1], 2), s[1]);
    const __m256i r = rotl4<7>(times5);
    const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
    const __m256i t = _mm256_slli_epi64(s[1], 17);
    s[2] = _mm256_xor_si256(s[2], s[0]);
    s[3] = _mm256_xor_si256(s[3], s[1]);
    s[1] = _mm256_xor_si256(s[1], s[2]);
    s[0] = _mm256_xor_si256(s[0], s[3]);
    s[2] = _mm256_xor_si256(s[2], t);
    s[3] = rotl4<45>(s[3]);
    return result;
}

// Lemire's high word of x * n for n < 2^32, from two 32x32->64 products:
// x * n = (x_hi n + (x_lo n >> 32)) 2^32 + (x_lo n mod 2^32), and the
// bracket (`mid`) cannot overflow 64 bits. The 128-bit product's low word
// is (mid mod 2^32) 2^32 + (x_lo n mod 2^32); it can fall under Lemire's
// threshold (< n < 2^32) only if mid's low half is zero, so `maybe_reject`
// flags exactly the lanes that need the rejection test.
DRE_TARGET_AVX2
inline __m256i lemire_high4(__m256i x, __m256i n, __m256i& maybe_reject) {
    const __m256i lo_n = _mm256_mul_epu32(x, n);
    const __m256i hi_n = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), n);
    const __m256i mid = _mm256_add_epi64(hi_n, _mm256_srli_epi64(lo_n, 32));
    maybe_reject = _mm256_cmpeq_epi64(_mm256_slli_epi64(mid, 32),
                                      _mm256_setzero_si256());
    return _mm256_srli_epi64(mid, 32);
}

// The rare lane (about 2^-32 of draws) whose low word might fall under the
// threshold: spill the half, let the scalar Lemire code (xoshiro.h) run the
// exact test and any redraws from that lane's state, and reload. As in
// lemire_fixup8 (kernels_avx512.cpp), everything passes by value, so the
// draw loop never takes its state's address and can keep it in registers.
struct Fixup4 {
    __m256i s[4];
    __m256i idx;
};

DRE_TARGET_AVX2 __attribute__((noinline, cold)) Fixup4
lemire_fixup4(__m256i s0, __m256i s1, __m256i s2, __m256i s3, __m256i x,
              __m256i idx, __m256i flagged, std::uint64_t n) {
    alignas(32) std::uint64_t words[4][4], xs[4], flags[4], out[4];
    const __m256i state[4] = {s0, s1, s2, s3};
    for (int w = 0; w < 4; ++w)
        _mm256_store_si256(reinterpret_cast<__m256i*>(words[w]), state[w]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(xs), x);
    _mm256_store_si256(reinterpret_cast<__m256i*>(flags), flagged);
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), idx);
    for (int l = 0; l < 4; ++l) {
        if (flags[l] == 0) continue;
        std::uint64_t lane[4] = {words[0][l], words[1][l], words[2][l],
                                 words[3][l]};
        out[l] = lemire_finish(lane, n, xs[l]);
        for (int w = 0; w < 4; ++w) words[w][l] = lane[w];
    }
    Fixup4 fixed;
    for (int w = 0; w < 4; ++w)
        fixed.s[w] =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(words[w]));
    fixed.idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(out));
    return fixed;
}

// Word w of the 4 consecutive states at `states`, stream l in lane l.
DRE_TARGET_AVX2
inline __m256i state_word4(const std::uint64_t* states, int w) {
    return _mm256_set_epi64x(static_cast<long long>(states[12 + w]),
                             static_cast<long long>(states[8 + w]),
                             static_cast<long long>(states[4 + w]),
                             static_cast<long long>(states[w]));
}

// All-lanes-enabled gather. The masked form with an explicit zero source is
// semantically identical to the plain intrinsic but avoids GCC's
// maybe-uninitialized warning on _mm256_undefined_pd.
DRE_TARGET_AVX2
inline __m256d gather4_i64(const double* values, __m256i idx) {
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), values, idx, all, 8);
}

// One draw on the 4 streams of state half `s`: the gathered
// values[uniform_index(m)] per lane. kPow2: m is a power of two, so
// 2^64 mod m = 0 and Lemire never rejects; the high word of x * 2^k is
// x >> (64 - k). For m = 1 that count is 64, which VPSRLQ defines to
// produce 0 — the only index in [0, 1) — so no C++ shift by 64 happens.
// Always inlined, and a half's fix-up check sits beside its own draw, so
// the loop keeps both state halves in registers.
template <bool kPow2>
DRE_TARGET_AVX2 __attribute__((always_inline)) inline __m256d
draw4(const double* values, __m256i s[4], std::uint64_t m, __m256i n,
      __m128i pow2_shift) {
    const __m256i x = xoshiro_next4(s);
    __m256i idx;
    if constexpr (kPow2) {
        idx = _mm256_srl_epi64(x, pow2_shift);
    } else {
        __m256i flagged;
        idx = lemire_high4(x, n, flagged);
        if (!_mm256_testz_si256(flagged, flagged)) [[unlikely]] {
            const Fixup4 fixed =
                lemire_fixup4(s[0], s[1], s[2], s[3], x, idx, flagged, m);
            s[0] = fixed.s[0];
            s[1] = fixed.s[1];
            s[2] = fixed.s[2];
            s[3] = fixed.s[3];
            idx = fixed.idx;
        }
    }
    return gather4_i64(values, idx);
}

// Streams states[0 .. 4 kResampleStreams) through all m draws.
template <bool kPow2>
DRE_TARGET_AVX2 void resample8(const double* values, std::size_t m,
                               const std::uint64_t* states, double* out) {
    // Constant indices only: one variable-index store would keep the
    // whole state array in memory.
    const std::uint64_t* half1 = states + 16;
    __m256i s[2][4] = {{state_word4(states, 0), state_word4(states, 1),
                        state_word4(states, 2), state_word4(states, 3)},
                       {state_word4(half1, 0), state_word4(half1, 1),
                        state_word4(half1, 2), state_word4(half1, 3)}};
    __m256d acc[2][8];
    for (int h = 0; h < 2; ++h)
        for (int j = 0; j < 8; ++j) acc[h][j] = _mm256_setzero_pd();
    const __m256i n = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m128i shift =
        _mm_cvtsi64_si128(kPow2 ? 64 - std::countr_zero(m) : 0);
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j = i & 7;
        acc[0][j] = _mm256_add_pd(acc[0][j],
                                  draw4<kPow2>(values, s[0], m, n, shift));
        acc[1][j] = _mm256_add_pd(acc[1][j],
                                  draw4<kPow2>(values, s[1], m, n, shift));
    }
    // The canonical tree, lane-wise: lane l of the result is stream l's
    // ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
    for (int h = 0; h < 2; ++h) {
        const __m256d* a = acc[h];
        const __m256d sum = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(a[0], a[1]), _mm256_add_pd(a[2], a[3])),
            _mm256_add_pd(_mm256_add_pd(a[4], a[5]), _mm256_add_pd(a[6], a[7])));
        _mm256_storeu_pd(out + 4 * h, sum);
    }
}

} // namespace

DRE_TARGET_AVX2
void resample_sum8_avx2(const double* values, std::size_t m,
                        const std::uint64_t* states, std::size_t streams,
                        double* out) {
    const bool pow2 = std::has_single_bit(m);
    std::size_t s = 0;
    for (; s + kResampleStreams <= streams; s += kResampleStreams) {
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
