#include "stats/rng.h"

#include <cmath>

#include "simd/xoshiro.h"

namespace dre::stats {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() noexcept { return simd::xoshiro_next(state_); }

double Rng::uniform() noexcept {
    // 53-bit mantissa in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    if (!(lo < hi)) throw std::invalid_argument("Rng::uniform: lo must be < hi");
    return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("Rng::uniform_index: n must be > 0");
    return simd::lemire_index(state_, n);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo must be <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) {
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("Rng::bernoulli: p outside [0,1]");
    return uniform() < p;
}

double Rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u, v, s;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * factor;
    has_cached_normal_ = true;
    return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

double Rng::exponential(double lambda) {
    if (lambda <= 0.0) throw std::invalid_argument("Rng::exponential: lambda must be > 0");
    // 1 - uniform() is in (0, 1]; log of it is finite.
    return -std::log(1.0 - uniform()) / lambda;
}

double Rng::lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
}

double Rng::pareto(double xm, double alpha) {
    if (xm <= 0.0 || alpha <= 0.0)
        throw std::invalid_argument("Rng::pareto: xm and alpha must be > 0");
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
}

std::size_t Rng::categorical(std::span<const double> weights) {
    if (weights.empty()) throw std::invalid_argument("Rng::categorical: empty weights");
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0 || !std::isfinite(w))
            throw std::invalid_argument("Rng::categorical: weights must be finite and >= 0");
        total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("Rng::categorical: weights sum to zero");
    double target = uniform() * total;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) return i;
    }
    return weights.size() - 1;
}

std::uint64_t Rng::poisson(double lambda) {
    if (lambda < 0.0) throw std::invalid_argument("Rng::poisson: lambda must be >= 0");
    if (lambda == 0.0) return 0;
    if (lambda < 30.0) {
        const double limit = std::exp(-lambda);
        std::uint64_t k = 0;
        double product = uniform();
        while (product > limit) {
            ++k;
            product *= uniform();
        }
        return k;
    }
    // Normal approximation with continuity correction for large lambda.
    const double draw = normal(lambda, std::sqrt(lambda));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

Rng Rng::split() noexcept {
    return Rng{next_u64()};
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
    // Fold the full 256-bit state and the stream id into one 64-bit seed via
    // SplitMix64 finalization steps. Each state word and the id pass through
    // their own mixing round so that ids differing in any bit, or parents
    // differing in any state word, yield unrelated children.
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t word : state_) {
        s ^= word;
        s = splitmix64(s);
    }
    s ^= stream_id;
    s = splitmix64(s);
    return Rng{s};
}

std::array<std::uint64_t, 4> Rng::state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& words) noexcept {
    Rng rng;
    for (std::size_t i = 0; i < 4; ++i) rng.state_[i] = words[i];
    return rng;
}

} // namespace dre::stats
