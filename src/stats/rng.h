// Deterministic pseudo-random number generation and common distributions.
//
// A thin, hand-rolled substrate: the evaluation experiments must be exactly
// reproducible across platforms, so we avoid the implementation-defined
// distributions of <random> and implement the generator (xoshiro256**) and
// all samplers ourselves.
#ifndef DRE_STATS_RNG_H
#define DRE_STATS_RNG_H

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dre::stats {

// xoshiro256** by Blackman & Vigna: fast, high-quality 64-bit generator.
// Seeded through SplitMix64 so that any 64-bit seed yields a good state.
// The step and uniform_index's Lemire draw are defined once, in
// simd/xoshiro.h, which the bootstrap resample kernel shares.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

    // Uniform 64-bit word.
    std::uint64_t next_u64() noexcept;

    // UniformReal in [0, 1).
    double uniform() noexcept;

    // Uniform in [lo, hi). Requires lo < hi.
    double uniform(double lo, double hi);

    // Uniform integer in [0, n). Requires n > 0.
    std::uint64_t uniform_index(std::uint64_t n);

    // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    // Bernoulli draw with success probability p in [0, 1].
    bool bernoulli(double p);

    // Standard normal via Marsaglia polar method.
    double normal() noexcept;
    double normal(double mean, double stddev) noexcept;

    // Exponential with rate lambda > 0.
    double exponential(double lambda);

    // Log-normal: exp(normal(mu, sigma)).
    double lognormal(double mu, double sigma) noexcept;

    // Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed latencies).
    double pareto(double xm, double alpha);

    // Categorical draw: index i with probability weights[i] / sum(weights).
    // Requires non-negative weights with positive sum.
    std::size_t categorical(std::span<const double> weights);

    // Poisson draw (Knuth for small lambda, normal approximation otherwise).
    std::uint64_t poisson(double lambda);

    // In-place Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            using std::swap;
            swap(v[i - 1], v[uniform_index(i)]);
        }
    }

    // Split off an independently-seeded generator, advancing this one (for
    // sequential sub-streams).
    Rng split() noexcept;

    // Derive the `stream_id`-th child stream without advancing this
    // generator: the same (state, stream_id) pair always yields the same
    // child, and distinct stream ids yield statistically independent
    // streams. This is the substrate for deterministic parallelism — each
    // parallel work item draws from split(logical_index), so results do not
    // depend on the thread count or execution order (see core/parallel.h).
    Rng split(std::uint64_t stream_id) const noexcept;

    // UniformRandomBitGenerator interface (usable with std algorithms).
    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~0ull; }
    result_type operator()() noexcept { return next_u64(); }

    // Raw generator words, for checkpoint/resume: from_state(state()) is an
    // exact clone. The Marsaglia normal() cache is NOT captured — exact for
    // every generator that has not buffered a normal draw, which covers the
    // split()/uniform() protocols the evaluation paths use.
    std::array<std::uint64_t, 4> state() const noexcept;
    static Rng from_state(const std::array<std::uint64_t, 4>& words) noexcept;

private:
    std::uint64_t state_[4];
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

} // namespace dre::stats

#endif // DRE_STATS_RNG_H
