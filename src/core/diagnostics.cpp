#include "core/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/summary.h"

namespace dre::core {

OverlapDiagnostics overlap_diagnostics(const Trace& trace, const Policy& new_policy) {
    const std::vector<double> weights = importance_weights(trace, new_policy);
    OverlapDiagnostics diag;
    diag.n = weights.size();
    double sum = 0.0, sum_sq = 0.0;
    std::size_t zeros = 0;
    for (double w : weights) {
        sum += w;
        sum_sq += w * w;
        diag.max_weight = std::max(diag.max_weight, w);
        if (w == 0.0) ++zeros;
    }
    diag.mean_weight = sum / static_cast<double>(weights.size());
    diag.effective_sample_size = sum_sq > 0.0 ? sum * sum / sum_sq : 0.0;
    diag.effective_sample_fraction =
        diag.effective_sample_size / static_cast<double>(weights.size());
    const double var = stats::variance(weights);
    diag.weight_cv =
        diag.mean_weight > 0.0 ? std::sqrt(var) / diag.mean_weight : 0.0;
    diag.zero_weight_fraction =
        static_cast<double>(zeros) / static_cast<double>(weights.size());
    return diag;
}

stats::ConfidenceInterval empirical_bernstein_interval(const EstimateResult& result,
                                                       double level) {
    if (result.per_tuple.size() < 2)
        throw std::invalid_argument(
            "empirical_bernstein_interval: need >= 2 contributions");
    if (level <= 0.0 || level >= 1.0)
        throw std::invalid_argument("empirical_bernstein_interval: bad level");
    const auto n = static_cast<double>(result.per_tuple.size());
    const double delta = 1.0 - level;
    const double variance = stats::sample_variance(result.per_tuple);
    double lo = result.per_tuple.front(), hi = result.per_tuple.front();
    for (double x : result.per_tuple) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    const double range = hi - lo;
    const double log_term = std::log(3.0 / delta);
    const double radius =
        std::sqrt(2.0 * variance * log_term / n) + 3.0 * range * log_term / n;
    const double mean = stats::mean(result.per_tuple);
    stats::ConfidenceInterval ci;
    ci.point = mean;
    ci.lower = mean - radius;
    ci.upper = mean + radius;
    ci.level = level;
    return ci;
}

} // namespace dre::core
