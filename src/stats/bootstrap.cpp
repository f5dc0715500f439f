#include "stats/bootstrap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "core/parallel.h"
#include "obs/obs.h"
#include "simd/simd.h"
#include "stats/summary.h"

namespace dre::stats {
namespace {

// Quantile by partial selection — same linear interpolation as
// stats::quantile but O(n) via nth_element instead of a full sort.
// Reorders xs. `lower_bound_rank` lets the caller promise that ranks below
// it are already in their sorted positions (from a previous call with a
// smaller q), shrinking the selection range.
double quantile_select(std::vector<double>& xs, double q,
                       std::size_t lower_bound_rank = 0) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const auto first = xs.begin() + static_cast<std::ptrdiff_t>(lower_bound_rank);
    std::nth_element(first, xs.begin() + static_cast<std::ptrdiff_t>(lo), xs.end());
    const double value_lo = xs[lo];
    if (frac == 0.0 || lo + 1 == xs.size()) return value_lo;
    // The (lo+1)-th order statistic is the minimum of the suffix.
    const double value_hi =
        *std::min_element(xs.begin() + static_cast<std::ptrdiff_t>(lo + 1), xs.end());
    return value_lo * (1.0 - frac) + value_hi * frac;
}

} // namespace

ConfidenceInterval bootstrap_ci(std::span<const double> sample,
                                const Statistic& statistic, Rng& rng,
                                int replicates, double level) {
    if (sample.empty()) throw std::invalid_argument("bootstrap_ci: empty sample");
    if (replicates < 2) throw std::invalid_argument("bootstrap_ci: need >= 2 replicates");
    if (level <= 0.0 || level >= 1.0)
        throw std::invalid_argument("bootstrap_ci: level outside (0,1)");

    DRE_SPAN("bootstrap.ci");

    ConfidenceInterval ci;
    ci.level = level;
    ci.point = statistic(sample);

    // Advance the caller's generator once (consecutive calls stay distinct),
    // then key every replicate off its own split stream so the replicate
    // values — and hence the interval — are identical for any thread count.
    const Rng base = rng.split();
    const std::size_t n = sample.size();
    const auto b_count = static_cast<std::size_t>(replicates);
    std::vector<double> replicate_values(b_count);
    // Replicates are cheap relative to thread dispatch unless there are many
    // of them: below the grain the whole loop runs serially on the caller
    // (parallel_for_chunked's fallback), and above it each task claims a
    // batch of replicates and reuses one resample buffer across its batch.
    // Replicate b's value depends only on base.split(b), so serial and
    // parallel schedules produce identical intervals.
    constexpr std::size_t kReplicateGrain = 16;
    par::parallel_for_chunked(
        b_count,
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> resample(n); // one buffer per batch, reused
            // Draw all indices first, then gather in one vectorized pass.
            // Same draws in the same order, same elements copied, so the
            // replicate values are bit-identical to the fused loop. The
            // 32-bit index scratch requires n < 2^31; larger samples (which
            // would also defeat the gather's int32 indices) keep the plain
            // fused loop.
            const bool narrow_idx = n < (std::size_t{1} << 31);
            std::vector<std::uint32_t> idx(narrow_idx ? n : 0);
            const simd::Ops& ops = simd::ops();
#if DRE_OBS_ENABLED
            // Where replicate time goes: drawing the resample vs computing
            // the statistic. Accumulated locally, flushed once per chunk;
            // timing-derived, so diagnostics-only, but the replicate *count*
            // is a per-item sum and stays thread-count deterministic.
            std::uint64_t resample_ns = 0, statistic_ns = 0;
#endif
            for (std::size_t b = begin; b < end; ++b) {
                Rng replicate_rng = base.split(b);
#if DRE_OBS_ENABLED
                const std::uint64_t t0 = obs::now_ns();
#endif
                if (narrow_idx) {
                    for (std::size_t i = 0; i < n; ++i)
                        idx[i] = static_cast<std::uint32_t>(
                            replicate_rng.uniform_index(n));
                    ops.gather(sample.data(), idx.data(), n, resample.data());
                } else {
                    for (std::size_t i = 0; i < n; ++i)
                        resample[i] = sample[replicate_rng.uniform_index(n)];
                }
#if DRE_OBS_ENABLED
                const std::uint64_t t1 = obs::now_ns();
#endif
                replicate_values[b] = statistic(resample);
#if DRE_OBS_ENABLED
                const std::uint64_t t2 = obs::now_ns();
                resample_ns += t1 - t0;
                statistic_ns += t2 - t1;
                DRE_HIST_RECORD("bootstrap.replicate_ns", t2 - t0);
#endif
            }
#if DRE_OBS_ENABLED
            DRE_COUNTER_ADD("bootstrap.replicates", end - begin);
            DRE_COUNTER_ADD("bootstrap.resample_ns", resample_ns);
            DRE_COUNTER_ADD("bootstrap.statistic_ns", statistic_ns);
#endif
        },
        /*min_grain=*/kReplicateGrain);

    const double alpha = 1.0 - level;
    // Partial selection instead of a full sort; the upper quantile's
    // selection can skip everything below the lower quantile's rank.
    ci.lower = quantile_select(replicate_values, alpha / 2.0);
    const auto lower_rank = static_cast<std::size_t>(
        (alpha / 2.0) * static_cast<double>(b_count - 1));
    ci.upper = quantile_select(replicate_values, 1.0 - alpha / 2.0, lower_rank);
    return ci;
}

ConfidenceInterval bootstrap_mean_ci(std::span<const double> sample, Rng& rng,
                                     int replicates, double level) {
    return bootstrap_ci(
        sample, [](std::span<const double> xs) { return mean(xs); }, rng,
        replicates, level);
}

ChunkedMeanBootstrap::ChunkedMeanBootstrap(Rng base, int replicates,
                                           double level)
    : base_(base), replicates_(replicates), level_(level) {
    if (replicates < 2)
        throw std::invalid_argument("ChunkedMeanBootstrap: need >= 2 replicates");
    if (level <= 0.0 || level >= 1.0)
        throw std::invalid_argument("ChunkedMeanBootstrap: level outside (0,1)");
    sums_.assign(static_cast<std::size_t>(replicates), 0.0);
}

std::vector<double> ChunkedMeanBootstrap::chunk_partials(
    std::uint64_t chunk_id, std::span<const double> values) const {
    const std::size_t m = values.size();
    if (m > par::kReduceChunk)
        throw std::invalid_argument(
            "ChunkedMeanBootstrap: chunk exceeds par::kReduceChunk values");
    const auto b_count = static_cast<std::size_t>(replicates_);
    // Pure child stream per (chunk, replicate): the partial depends only on
    // the base generator, the chunk id, and the chunk's values.
    const Rng chunk_base = base_.split(chunk_id);
    std::vector<std::uint64_t> states(4 * b_count);
    for (std::size_t b = 0; b < b_count; ++b) {
        const std::array<std::uint64_t, 4> words = chunk_base.split(b).state();
        std::copy(words.begin(), words.end(), states.begin() + 4 * b);
    }
    // Replicate b draws m indices from its stream exactly as
    // uniform_index(m) would and sums the drawn values in the canonical
    // 8-lane order — the same value at every ISA level.
    std::vector<double> partials(b_count);
    simd::ops().resample_sum8(values.data(), m, states.data(), b_count,
                              partials.data());
#if DRE_OBS_ENABLED
    DRE_COUNTER_INC("bootstrap.chunk_partials");
    DRE_COUNTER_ADD("bootstrap.chunked_resamples", b_count * m);
#endif
    return partials;
}

void ChunkedMeanBootstrap::restore_sums(std::span<const double> sums) {
    if (sums.size() != sums_.size())
        throw std::invalid_argument(
            "ChunkedMeanBootstrap: restored sum count != replicates");
    sums_.assign(sums.begin(), sums.end());
}

void ChunkedMeanBootstrap::merge(std::span<const double> partials) {
    if (partials.size() != sums_.size())
        throw std::invalid_argument(
            "ChunkedMeanBootstrap: partial count != replicates");
    for (std::size_t b = 0; b < sums_.size(); ++b) sums_[b] += partials[b];
}

ConfidenceInterval ChunkedMeanBootstrap::finalize(std::uint64_t total_n,
                                                  double point) const {
    if (total_n == 0)
        throw std::invalid_argument("ChunkedMeanBootstrap: empty sample");
    ConfidenceInterval ci;
    ci.level = level_;
    ci.point = point;
    std::vector<double> replicate_values(sums_.size());
    for (std::size_t b = 0; b < sums_.size(); ++b)
        replicate_values[b] = sums_[b] / static_cast<double>(total_n);
    const double alpha = 1.0 - level_;
    ci.lower = quantile_select(replicate_values, alpha / 2.0);
    const auto lower_rank = static_cast<std::size_t>(
        (alpha / 2.0) * static_cast<double>(sums_.size() - 1));
    ci.upper = quantile_select(replicate_values, 1.0 - alpha / 2.0, lower_rank);
    return ci;
}

ConfidenceInterval chunked_bootstrap_mean_ci(std::span<const double> sample,
                                             double point, Rng& rng,
                                             int replicates, double level) {
    if (sample.empty())
        throw std::invalid_argument("chunked_bootstrap_mean_ci: empty sample");
    DRE_SPAN("bootstrap.chunked_ci");
    ChunkedMeanBootstrap bootstrap(rng.split(), replicates, level);
    const std::size_t chunks =
        (sample.size() + par::kReduceChunk - 1) / par::kReduceChunk;
    // Partials per chunk in parallel (each is a pure function of its chunk
    // id), merged strictly in chunk order below.
    std::vector<std::vector<double>> partials(chunks);
    par::parallel_for(chunks, [&](std::size_t c) {
        const std::size_t begin = c * par::kReduceChunk;
        const std::size_t end =
            std::min(begin + par::kReduceChunk, sample.size());
        partials[c] =
            bootstrap.chunk_partials(c, sample.subspan(begin, end - begin));
    });
    for (const std::vector<double>& p : partials) bootstrap.merge(p);
    return bootstrap.finalize(sample.size(), point);
}

} // namespace dre::stats

