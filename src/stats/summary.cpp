#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dre::stats {

void Accumulator::add(double x) noexcept {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double Accumulator::variance() const noexcept {
    return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_);
}

double Accumulator::stddev() const noexcept {
    return std::sqrt(variance());
}

double Accumulator::sample_variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::sample_stddev() const noexcept {
    return std::sqrt(sample_variance());
}

double Accumulator::standard_error() const noexcept {
    return n_ < 2 ? 0.0 : sample_stddev() / std::sqrt(static_cast<double>(n_));
}

namespace {

void require_nonempty(std::span<const double> xs, const char* who) {
    if (xs.empty()) throw std::invalid_argument(std::string(who) + ": empty sample");
}

} // namespace

double mean(std::span<const double> xs) {
    require_nonempty(xs, "mean");
    Accumulator acc;
    for (double x : xs) acc.add(x);
    return acc.mean();
}

double variance(std::span<const double> xs) {
    require_nonempty(xs, "variance");
    Accumulator acc;
    for (double x : xs) acc.add(x);
    return acc.variance();
}

double sample_variance(std::span<const double> xs) {
    require_nonempty(xs, "sample_variance");
    Accumulator acc;
    for (double x : xs) acc.add(x);
    return acc.sample_variance();
}

double stddev(std::span<const double> xs) {
    return std::sqrt(variance(xs));
}

double quantile(std::span<const double> xs, double q) {
    require_nonempty(xs, "quantile");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) {
    return quantile(xs, 0.5);
}

Summary summarize(std::span<const double> xs) {
    require_nonempty(xs, "summarize");
    Accumulator acc;
    for (double x : xs) acc.add(x);
    Summary s;
    s.count = acc.count();
    s.mean = acc.mean();
    s.stddev = acc.sample_stddev();
    s.standard_error = acc.standard_error();
    s.min = acc.min();
    s.max = acc.max();
    s.median = median(xs);
    s.p25 = quantile(xs, 0.25);
    s.p75 = quantile(xs, 0.75);
    return s;
}

} // namespace dre::stats
