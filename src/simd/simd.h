// Runtime-dispatched SIMD kernels for the estimation hot paths (`dre::simd`).
//
// The estimation pipeline spends its cycles in a handful of dense loops:
// squared-distance accumulation inside k-NN leaf scans, the q̂[tuple ×
// decision] weighted sums shared by every model-based estimator, bootstrap
// resampling (index draws and resample sums), and CRC-32C over every
// `.drt` row group. This library provides those loops as *batched
// primitives* behind a runtime CPU dispatch: the best instruction set is
// probed once (CPUID), an explicit `DRE_SIMD=scalar|avx2|avx512`
// environment override exists for testing, and every primitive ships a
// scalar implementation that is the executable specification of the
// kernel's semantics.
//
// Determinism contract (the load-bearing part)
// --------------------------------------------
// The repo's hard guarantee is bit-for-bit reproducibility for a fixed
// seed, across thread counts *and now across dispatch levels*. Each kernel
// therefore defines ONE canonical arithmetic, expressed in logical lanes,
// and every ISA level implements that arithmetic exactly:
//
//  * floating-point kernels use a fixed 8-lane blocking — element i
//    accumulates into lane (i mod 8), each lane is a plain sequential
//    mul/add chain (no FMA contraction anywhere in this library), and the
//    horizontal reduce is the fixed tree
//    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7));
//  * the integer kernel (CRC-32C) is exact by construction;
//  * the resampler's index draws are integer xoshiro256** / Lemire
//    arithmetic (exact), and its sums follow the FP rule above per stream.
//
// Because the lane count is a property of the *kernel*, not the register
// width, scalar (8 running sums) and AVX2 (2 × 4-lane ymm) execute the
// identical sequence of IEEE operations per lane and produce byte-identical
// results; AVX-512 reuses the AVX2 kernels except the resampler, whose
// lanes are streams (see resample_sum8).
// tests/test_simd.cpp asserts bitwise equality — not a tolerance — for
// every kernel at every level.
//
// The documented tolerance contract for FP paths is therefore currently
// **0 ulp**: `DRE_SIMD=scalar` and native runs are byte-identical
// everywhere. If a future kernel wants reassociation freedom that cannot
// be expressed as fixed-lane blocking (e.g. true FMA), it must (a) keep a
// scalar implementation as the golden fingerprint, (b) document its
// tolerance bound here and in DESIGN.md §11, and (c) be excluded from the
// byte-diffed fingerprint sections in CI.
//
// Adding a new primitive: declare the pointer in `Ops`, implement it in
// kernels_scalar.cpp (the spec) and optionally kernels_avx2/avx512.cpp
// (levels without an override inherit the next-lower level's pointer in
// dispatch.cpp), and add a scalar-vs-level bitwise equivalence test to
// tests/test_simd.cpp. See DESIGN.md §11 for the full checklist.
#ifndef DRE_SIMD_SIMD_H
#define DRE_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>
#include <optional>

namespace dre::simd {

// Dispatch levels, ordered: every level is a superset of the ones below.
// kAvx2 is 4-lane double vectors, gathers and the hardware `crc32`
// instruction (SSE4.2, which every AVX2 CPU has); kAvx512 (AVX-512F) adds
// the 8-stream zmm resampler. A CPU without AVX2 runs the scalar spec.
enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kNumLevels = 3;

// Logical lane count of the FP kernels' canonical arithmetic. A property
// of the kernel contract, NOT of any register width — changing it changes
// results, so treat it like a golden constant (par::kReduceChunk has the
// same status).
inline constexpr std::size_t kFpLanes = 8;

// "scalar" / "avx2" / "avx512".
const char* level_name(Level level) noexcept;

// Parse a DRE_SIMD-style level string; nullopt for anything unknown.
std::optional<Level> parse_level(const char* text) noexcept;

// Best level this CPU supports (CPUID probe, cached after the first call).
Level detected_level() noexcept;

// The level the dispatched `ops()` table currently resolves to. On first
// use this is min(detected, DRE_SIMD override if set); an unparseable
// DRE_SIMD value warns once on stderr and is ignored.
Level active_level() noexcept;

// Re-point the dispatch table (benches and tests switch levels
// in-process). Requests above `cap` clamp down to it — passing the real
// `detected_level()` (the default) means "never activate instructions this
// CPU lacks", and passing a lower cap simulates a weaker CPU for
// dispatch-fallback tests. Returns the level actually activated. Not
// thread-safe against concurrent kernel calls; call it only between
// parallel regions (the same rule as par::set_thread_count).
Level set_active_level(Level request);
Level set_active_level(Level request, Level cap);

// --- Kernel table ----------------------------------------------------------

struct Ops {
    // CRC-32C (Castagnoli, reflected) of `size` bytes continuing from
    // `seed`; chaining calls equals the one-shot CRC of the concatenation.
    // Exact: every level returns identical values on every input.
    std::uint32_t (*crc32c)(const void* data, std::size_t size,
                            std::uint32_t seed);

    // Squared L2 distances from `query` to `num_blocks` consecutive blocks
    // of 8 points each (one KD-tree leaf), stored dimension-major per
    // block: blocks[(b * dims + d) * 8 + lane] is coordinate d of point
    // b*8+lane. Canonical arithmetic per lane: acc += diff * diff over
    // dimensions in order, lanes independent across blocks. Blocks are
    // processed in pairs (the trailing odd block alone): on every
    // kAbortStride-th dimension (see kernels.h), if every lane of the
    // pair's 16 (or the odd block's 8) already exceeds `worst` (strict >),
    // the pair is abandoned — no lane could still be a candidate. The
    // pairing exists to double the number of independent accumulator
    // chains on the latency-bound vector levels; it is part of the
    // contract so per-level work counters match. Candidates (final
    // d² <= worst, ordered compare — a NaN lane is never a candidate) are
    // appended in slot order: cand_d2[i] / cand_idx[i] hold the distance
    // and the point offset b*8+lane relative to the scan start; the count
    // is returned. Both output arrays need capacity num_blocks * 8. A
    // candidate's (d², index) may still lose the lexicographic tie-break
    // against the caller's evolving top-k, so callers re-check each one;
    // a non-candidate could never enter the heap, so skipping it is
    // exact. The abort predicate and the candidate list are both part of
    // the contract: every level returns the identical list, and per-level
    // work counters match too.
    std::size_t (*l2sq_scan)(const double* blocks, std::size_t num_blocks,
                             std::size_t dims, const double* query,
                             double worst, double* cand_d2,
                             std::uint32_t* cand_idx);

    // Fixed-8-lane weighted sum with the estimator zero-probability skip:
    // lane (i mod 8) accumulates w[i] * x[i] where w[i] != 0.0, and
    // contributes exactly +0.0 where w[i] == 0.0 (so a non-finite x[i]
    // under zero weight never pollutes the sum). `*skips`, when non-null,
    // is incremented by the number of zero weights.
    double (*weighted_sum_skip_zero)(const double* w, const double* x,
                                     std::size_t n, std::uint64_t* skips);

    // Multi-stream bootstrap resample sums over one chunk of m values,
    // m < 2^32. `states` holds `streams` xoshiro256** states, 4 words each
    // (stream s at states[4s .. 4s+3], the order of stats::Rng::state()).
    // For each stream the kernel draws m indices exactly as
    // stats::Rng::uniform_index(m) would from that state — Lemire's method,
    // rejection loop included (simd/xoshiro.h) — and out[s] receives the
    // canonical 8-lane sum of the drawn values: draw i accumulates into
    // lane (i mod 8), fixed reduce tree. The states are only read. AVX2
    // and AVX-512 run 8 streams per pass, one per 64-bit lane (of two ymm
    // or one zmm state set); each stream's draws and adds are the scalar
    // spec's, so the sums are bit-identical at every level and for any
    // stream count.
    void (*resample_sum8)(const double* values, std::size_t m,
                          const std::uint64_t* states, std::size_t streams,
                          double* out);
};

// The dispatched table for active_level(). Every table is an immutable
// static, so a hoisted `const Ops& ops = ops();` stays valid forever — a
// later set_active_level only changes what *subsequent* ops() calls
// return. Hot loops should hoist the reference out of their inner loop
// (each ops() call is an atomic load).
const Ops& ops() noexcept;

// The table for an explicit level (equivalence tests, benches). `level`
// above detected_level() returns the detected table instead — never a
// table whose instructions would fault.
const Ops& ops_for(Level level) noexcept;

} // namespace dre::simd

#endif // DRE_SIMD_SIMD_H
