// Off-policy estimation of reward *distributions*, not just means.
//
// Networking evaluation often cares about tails (p95 page-load time, p99
// latency SLOs) more than averages. The importance-weighted empirical CDF
//   F^(r) = sum_k w_k 1{r_k <= r} / sum_k w_k,   w_k = mu_new/mu_old
// estimates the reward CDF under the new policy from the logged trace;
// quantiles and CVaR follow. This extends the paper's framework from
// V(mu_new) = E[r] to quantile(r, q) and tail means.
#ifndef DRE_CORE_QUANTILE_ESTIMATORS_H
#define DRE_CORE_QUANTILE_ESTIMATORS_H

#include <vector>

#include "core/policy.h"
#include "trace/trace.h"

namespace dre::core {

// Weighted empirical distribution of rewards under the new policy.
class OffPolicyDistribution {
public:
    // Throws std::invalid_argument on an empty trace or when the new policy
    // has zero overlap with every logged decision (no weight mass).
    OffPolicyDistribution(const Trace& trace, const Policy& new_policy);

    // Importance-weighted quantile, q in [0, 1].
    double quantile(double q) const;

    // Mean of the worst (lowest-reward) `tail_fraction` of the distribution
    // (CVaR at level tail_fraction). tail_fraction in (0, 1].
    double cvar_lower(double tail_fraction) const;

    // Total importance weight (diagnostic; ~n when policies overlap well).
    double total_weight() const noexcept { return total_weight_; }
    std::size_t support_size() const noexcept { return points_.size(); }

private:
    struct WeightedPoint {
        double reward;
        double weight;
        double cumulative; // cumulative weight up to and including this point
    };
    std::vector<WeightedPoint> points_; // sorted by reward, zero weights dropped
    double total_weight_ = 0.0;
};

// Convenience wrapper.
double off_policy_quantile(const Trace& trace, const Policy& new_policy, double q);

} // namespace dre::core

#endif // DRE_CORE_QUANTILE_ESTIMATORS_H
