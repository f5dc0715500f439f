#include "stats/bootstrap.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/parallel.h"
#include "obs/obs.h"
#include "simd/simd.h"

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
    DRE_COUNTER_INC("bootstrap.chunk_partials");
    DRE_COUNTER_ADD("bootstrap.chunked_resamples", b_count * m);
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

