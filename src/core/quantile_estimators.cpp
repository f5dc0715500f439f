#include "core/quantile_estimators.h"

#include <algorithm>
#include <stdexcept>

#include "core/estimators.h"

namespace dre::core {

OffPolicyDistribution::OffPolicyDistribution(const Trace& trace,
                                             const Policy& new_policy) {
    const std::vector<double> weights = importance_weights(trace, new_policy);

    std::vector<WeightedPoint> points;
    points.reserve(trace.size());
    for (std::size_t k = 0; k < trace.size(); ++k) {
        if (weights[k] <= 0.0) continue;
        points.push_back({trace[k].reward, weights[k], 0.0});
    }
    if (points.empty())
        throw std::invalid_argument(
            "OffPolicyDistribution: new policy has zero overlap with the trace");

    std::sort(points.begin(), points.end(),
              [](const WeightedPoint& a, const WeightedPoint& b) {
                  return a.reward < b.reward;
              });
    double cumulative = 0.0;
    for (auto& p : points) {
        cumulative += p.weight;
        p.cumulative = cumulative;
    }
    total_weight_ = cumulative;
    points_ = std::move(points);
}

double OffPolicyDistribution::quantile(double q) const {
    if (q < 0.0 || q > 1.0)
        throw std::invalid_argument("OffPolicyDistribution::quantile: q outside [0,1]");
    const double target = q * total_weight_;
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), target,
        [](const WeightedPoint& p, double value) { return p.cumulative < value; });
    if (it == points_.end()) return points_.back().reward;
    return it->reward;
}

double OffPolicyDistribution::cvar_lower(double tail_fraction) const {
    if (tail_fraction <= 0.0 || tail_fraction > 1.0)
        throw std::invalid_argument(
            "OffPolicyDistribution::cvar_lower: fraction outside (0,1]");
    const double tail_weight = tail_fraction * total_weight_;
    double accumulated = 0.0, weighted_sum = 0.0;
    for (const auto& p : points_) {
        const double take = std::min(p.weight, tail_weight - accumulated);
        if (take <= 0.0) break;
        weighted_sum += take * p.reward;
        accumulated += take;
    }
    return weighted_sum / accumulated;
}

double off_policy_quantile(const Trace& trace, const Policy& new_policy, double q) {
    return OffPolicyDistribution(trace, new_policy).quantile(q);
}

} // namespace dre::core
