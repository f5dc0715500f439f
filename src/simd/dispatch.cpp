// Runtime dispatch: one CPUID probe, one optional DRE_SIMD override read on
// first use, immutable per-level tables, an atomic pointer to the active
// one. Levels without their own implementation of a kernel inherit the
// next-lower level's pointer here (AVX-512 reuses everything of AVX2 but
// the resampler) — the table is the single place that encodes the
// inheritance.
#include "simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernels.h"

namespace dre::simd {
namespace {

using namespace detail;

constexpr Ops kScalarOps = {crc32c_scalar,
                            l2sq_scan_scalar,
                            weighted_sum_skip_zero_scalar,
                            resample_sum8_scalar};

#if DRE_SIMD_X86
constexpr Ops kAvx2Ops = {crc32c_hw,
                          l2sq_scan_avx2,
                          weighted_sum_skip_zero_avx2,
                          resample_sum8_avx2};

constexpr Ops kAvx512Ops = {kAvx2Ops.crc32c,
                            kAvx2Ops.l2sq_scan,
                            kAvx2Ops.weighted_sum_skip_zero,
                            resample_sum8_avx512};
#endif

const Ops& table_for(Level level) noexcept {
#if DRE_SIMD_X86
    switch (level) {
        case Level::kAvx512: return kAvx512Ops;
        case Level::kAvx2: return kAvx2Ops;
        case Level::kScalar: break;
    }
#else
    (void)level;
#endif
    return kScalarOps;
}

Level min_level(Level a, Level b) noexcept {
    return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

// The AVX2 and AVX-512 tables share the hardware CRC, so both need
// SSE4.2's `crc32` as well. Every AVX2 CPU has it; a CPU without AVX2 runs
// the scalar table.
Level probe_cpu() noexcept {
#if DRE_SIMD_X86
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2"))
        return __builtin_cpu_supports("avx512f") ? Level::kAvx512
                                                 : Level::kAvx2;
#endif
    return Level::kScalar;
}

std::atomic<const Ops*> g_active{nullptr};
std::atomic<int> g_active_level{static_cast<int>(Level::kScalar)};

// First-use initialization: detected level clamped by DRE_SIMD if set.
// Racing threads compute the same answer (the environment is stable), so
// the last-writer-wins stores are benign.
const Ops* init_active() noexcept {
    Level level = detected_level();
    if (const char* env = std::getenv("DRE_SIMD"); env != nullptr && *env) {
        if (const std::optional<Level> parsed = parse_level(env)) {
            level = min_level(*parsed, level);
        } else {
            std::fprintf(stderr,
                         "dre::simd: ignoring unrecognized DRE_SIMD=\"%s\" "
                         "(expected scalar|avx2|avx512)\n",
                         env);
        }
    }
    const Ops* table = &table_for(level);
    g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
    g_active.store(table, std::memory_order_release);
    return table;
}

const Ops* ensure_active() noexcept {
    const Ops* table = g_active.load(std::memory_order_acquire);
    return table != nullptr ? table : init_active();
}

} // namespace

const char* level_name(Level level) noexcept {
    switch (level) {
        case Level::kAvx2: return "avx2";
        case Level::kAvx512: return "avx512";
        case Level::kScalar: break;
    }
    return "scalar";
}

std::optional<Level> parse_level(const char* text) noexcept {
    if (text == nullptr) return std::nullopt;
    if (std::strcmp(text, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(text, "avx2") == 0) return Level::kAvx2;
    if (std::strcmp(text, "avx512") == 0) return Level::kAvx512;
    return std::nullopt;
}

Level detected_level() noexcept {
    static const Level detected = probe_cpu();
    return detected;
}

Level active_level() noexcept {
    ensure_active();
    return static_cast<Level>(g_active_level.load(std::memory_order_relaxed));
}

Level set_active_level(Level request, Level cap) {
    const Level level =
        min_level(min_level(request, cap), detected_level());
    g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
    g_active.store(&table_for(level), std::memory_order_release);
    return level;
}

Level set_active_level(Level request) {
    return set_active_level(request, detected_level());
}

const Ops& ops() noexcept { return *ensure_active(); }

const Ops& ops_for(Level level) noexcept {
    return table_for(min_level(level, detected_level()));
}

} // namespace dre::simd
