#include "core/quantile_estimators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::core {
namespace {

Trace uniform_logged_trace(std::size_t n, stats::Rng& rng) {
    // Rewards: decision 0 ~ N(0,1); decision 1 ~ N(2, 0.5).
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        LoggedTuple t;
        t.context.numeric = {rng.uniform(0.0, 1.0)};
        t.decision = static_cast<Decision>(rng.uniform_index(2));
        t.reward = t.decision == 0 ? rng.normal(0.0, 1.0) : rng.normal(2.0, 0.5);
        t.propensity = 0.5;
        trace.add(std::move(t));
    }
    return trace;
}

TEST(OffPolicyDistribution, MatchingPolicyReproducesEmpiricalQuantiles) {
    stats::Rng rng(1);
    const Trace trace = uniform_logged_trace(4000, rng);
    UniformRandomPolicy same(2);
    const OffPolicyDistribution dist(trace, same);
    const std::vector<double> rewards = trace.rewards();
    for (double q : {0.1, 0.5, 0.9})
        EXPECT_NEAR(dist.quantile(q), stats::quantile(rewards, q), 0.05);
    EXPECT_NEAR(dist.total_weight(), 4000.0, 1e-6);
}

TEST(OffPolicyDistribution, RecoversTargetPolicyDistribution) {
    stats::Rng rng(2);
    const Trace trace = uniform_logged_trace(20000, rng);
    DeterministicPolicy always1(2, [](const ClientContext&) { return Decision{1}; });
    const OffPolicyDistribution dist(trace, always1);
    // Under always-1 the reward is N(2, 0.5): median 2, p90 ~ 2 + 1.2816*0.5.
    EXPECT_NEAR(dist.quantile(0.5), 2.0, 0.05);
    EXPECT_NEAR(dist.quantile(0.9), 2.0 + 1.2816 * 0.5, 0.08);
    // Only ~half the tuples carry weight.
    EXPECT_EQ(dist.support_size(), static_cast<std::size_t>(
        std::count_if(trace.begin(), trace.end(),
                      [](const LoggedTuple& t) { return t.decision == 1; })));
}

TEST(OffPolicyDistribution, CvarIsBelowMeanAndMonotone) {
    stats::Rng rng(4);
    const Trace trace = uniform_logged_trace(5000, rng);
    UniformRandomPolicy same(2);
    const OffPolicyDistribution dist(trace, same);
    const double mean_all = dist.cvar_lower(1.0);
    const double cvar_20 = dist.cvar_lower(0.2);
    const double cvar_5 = dist.cvar_lower(0.05);
    EXPECT_LT(cvar_20, mean_all);
    EXPECT_LT(cvar_5, cvar_20);
    EXPECT_NEAR(mean_all, stats::mean(trace.rewards()), 0.05);
}

TEST(OffPolicyDistribution, Validation) {
    stats::Rng rng(5);
    const Trace trace = uniform_logged_trace(100, rng);
    UniformRandomPolicy same(2);
    const OffPolicyDistribution dist(trace, same);
    EXPECT_THROW(dist.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW(dist.quantile(1.1), std::invalid_argument);
    EXPECT_THROW(dist.cvar_lower(0.0), std::invalid_argument);

    // No-overlap target.
    Trace only0;
    LoggedTuple t;
    t.decision = 0;
    t.propensity = 1.0;
    only0.add(t);
    DeterministicPolicy always1(2, [](const ClientContext&) { return Decision{1}; });
    EXPECT_THROW(OffPolicyDistribution(only0, always1), std::invalid_argument);
}

TEST(OffPolicyDistribution, ConvenienceWrappersAgree) {
    stats::Rng rng(6);
    const Trace trace = uniform_logged_trace(1000, rng);
    UniformRandomPolicy same(2);
    const OffPolicyDistribution dist(trace, same);
    EXPECT_DOUBLE_EQ(off_policy_quantile(trace, same, 0.5), dist.quantile(0.5));
}

} // namespace
} // namespace dre::core
