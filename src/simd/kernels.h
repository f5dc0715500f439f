// Internal per-level kernel declarations and the shared canonical helpers.
//
// Every kernel's semantics are fixed by the scalar implementation in
// kernels_scalar.cpp (see simd.h for the lane-blocking contract). The
// helpers here — the reduce tree and the per-lane tail fold — are the
// pieces of that contract the vector implementations share verbatim: a
// vector kernel spills its register lanes to the acc[8] array *in lane
// order*, folds the ragged tail with the same helper the scalar kernel
// uses, and reduces with the same tree. That, plus "no FMA anywhere in
// this library" (enforced by -ffp-contract=off on the target), is what
// makes every level byte-identical.
#ifndef DRE_SIMD_KERNELS_H
#define DRE_SIMD_KERNELS_H

#include <cstddef>
#include <cstdint>

// x86-64 with a compiler that supports per-function target attributes
// (GCC/Clang). Everything else runs the scalar level only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DRE_SIMD_X86 1
#else
#define DRE_SIMD_X86 0
#endif

namespace dre::simd::detail {

// l2sq_scan tests its early-abort predicate (over a block pair's 16 lanes,
// or the trailing odd block's 8 — see simd.h) only on every
// kAbortStride-th dimension (d % kAbortStride == kAbortStride - 1).
// Per-dimension checks cost about as much as the arithmetic itself on the
// wide levels; striding keeps the abort's bounded-waste property while
// restoring the vector levels' arithmetic advantage. Power of two, and
// part of the cross-level contract: every level strides identically, so
// per-level work counters still match. An aborted block and a block whose
// lanes all miss the threshold both contribute no candidates — the caller
// can't tell them apart, so the stride is invisible to results.
inline constexpr std::size_t kAbortStride = 4;

// Canonical horizontal reduce: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
inline double reduce8(const double acc[8]) noexcept {
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// Tail fold, shared by every level. `begin` must be a multiple of 8 (the
// vector body consumed whole blocks), so lane (i mod 8) == i - begin.
inline void weighted_tail(double acc[8], const double* w, const double* x,
                          std::size_t begin, std::size_t n,
                          std::uint64_t& zeros) noexcept {
    for (std::size_t i = begin; i < n; ++i) {
        const double p = w[i];
        if (p == 0.0) {
            ++zeros;
            continue; // exactly +0.0 contributed; see simd.h
        }
        acc[i & 7] += p * x[i];
    }
}

// --- Scalar level (the executable specification) ---------------------------

std::uint32_t crc32c_scalar(const void* data, std::size_t size,
                            std::uint32_t seed);
std::size_t l2sq_scan_scalar(const double* blocks, std::size_t num_blocks,
                             std::size_t dims, const double* query,
                             double worst, double* cand_d2,
                             std::uint32_t* cand_idx);
double weighted_sum_skip_zero_scalar(const double* w, const double* x,
                                     std::size_t n, std::uint64_t* skips);
void resample_sum8_scalar(const double* values, std::size_t m,
                          const std::uint64_t* states, std::size_t streams,
                          double* out);

#if DRE_SIMD_X86

// Hardware CRC-32C (kernels_crc32c.cpp; needs only SSE4.2's `crc32`),
// shared by the AVX2 and AVX-512 tables.
std::uint32_t crc32c_hw(const void* data, std::size_t size, std::uint32_t seed);

// --- AVX2 level (4-lane double vectors) -------------------------------------

std::size_t l2sq_scan_avx2(const double* blocks, std::size_t num_blocks,
                           std::size_t dims, const double* query, double worst,
                           double* cand_d2, std::uint32_t* cand_idx);
double weighted_sum_skip_zero_avx2(const double* w, const double* x,
                                   std::size_t n, std::uint64_t* skips);
void resample_sum8_avx2(const double* values, std::size_t m,
                        const std::uint64_t* states, std::size_t streams,
                        double* out);

// --- AVX-512 level (8-stream zmm resampler; the rest inherited from AVX2) ---

void resample_sum8_avx512(const double* values, std::size_t m,
                          const std::uint64_t* states, std::size_t streams,
                          double* out);

#endif // DRE_SIMD_X86

} // namespace dre::simd::detail

#endif // DRE_SIMD_KERNELS_H
