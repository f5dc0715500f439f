// Nonparametric hypothesis tests for comparing estimator error samples.
//
// The experiment harness claims "DR's error is lower than X's"; these tests
// back such claims with p-values that make no normality assumptions (error
// distributions here are skewed and heavy-tailed).
#ifndef DRE_STATS_HYPOTHESIS_H
#define DRE_STATS_HYPOTHESIS_H

#include <span>

namespace dre::stats {

struct RankSumResult {
    double u_statistic = 0.0;  // Mann-Whitney U for the first sample
    double z_score = 0.0;      // normal approximation (tie-corrected)
    double p_value_two_sided = 1.0;
    double p_value_less = 1.0; // P(first sample stochastically smaller)
};

// Mann-Whitney U / Wilcoxon rank-sum test with tie correction and the
// normal approximation (valid for n >= ~8 per sample, which the benches
// always satisfy). Throws std::invalid_argument on empty samples.
RankSumResult mann_whitney_u(std::span<const double> xs, std::span<const double> ys);

// Standard normal CDF (exposed because the tests and benches reuse it).
double normal_cdf(double z);

} // namespace dre::stats

#endif // DRE_STATS_HYPOTHESIS_H
