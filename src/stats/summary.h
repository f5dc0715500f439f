// Streaming and batch summary statistics.
#ifndef DRE_STATS_SUMMARY_H
#define DRE_STATS_SUMMARY_H

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace dre::stats {

// Numerically-stable single-pass accumulator (Welford's algorithm).
class Accumulator {
public:
    void add(double x) noexcept;

    std::size_t count() const noexcept { return n_; }
    bool empty() const noexcept { return n_ == 0; }
    double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
    // Population variance / stddev (divide by n). Zero when empty.
    double variance() const noexcept;
    double stddev() const noexcept;
    // Sample variance / stddev (divide by n-1). Zero when n < 2.
    double sample_variance() const noexcept;
    double sample_stddev() const noexcept;
    // Standard error of the mean (sample stddev / sqrt(n)). Zero when n < 2.
    double standard_error() const noexcept;
    double min() const noexcept { return min_; }
    double max() const noexcept { return max_; }
    double sum() const noexcept { return sum_; }

    // Full internal state, for checkpoint/resume: from_state(state()) is a
    // bit-exact clone (the moments are copied verbatim, not recomputed).
    struct State {
        std::size_t n = 0;
        double mean = 0.0, m2 = 0.0, sum = 0.0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
    };
    State state() const noexcept { return {n_, mean_, m2_, sum_, min_, max_}; }
    static Accumulator from_state(const State& s) noexcept {
        Accumulator a;
        a.n_ = s.n;
        a.mean_ = s.mean;
        a.m2_ = s.m2;
        a.sum_ = s.sum;
        a.min_ = s.min;
        a.max_ = s.max;
        return a;
    }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

// Plain value summary for a finished sample.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;       // sample stddev
    double standard_error = 0.0;
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;
};

// Batch helpers. All throw std::invalid_argument on empty input where a
// value is required.
double mean(std::span<const double> xs);
double variance(std::span<const double> xs);         // population
double sample_variance(std::span<const double> xs);  // n-1
double stddev(std::span<const double> xs);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::span<const double> xs, double q);
double median(std::span<const double> xs);
Summary summarize(std::span<const double> xs);

} // namespace dre::stats

#endif // DRE_STATS_SUMMARY_H
