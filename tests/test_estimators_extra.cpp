// Tests for the extended estimators: self-normalized DR and the
// empirical-Bernstein confidence interval.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diagnostics.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::core {
namespace {

class LinearEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0)}, {});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return true_mean(c, d) + rng.normal(0.0, 0.2);
    }
    double expected_reward(const ClientContext& c, Decision d, stats::Rng&,
                           int) const override {
        return true_mean(c, d);
    }
    std::size_t num_decisions() const noexcept override { return 2; }
    static double true_mean(const ClientContext& c, Decision d) {
        return d == 1 ? 0.5 + c.numeric[0] : -c.numeric[0];
    }
};

TEST(SnDr, MatchesDrWhenWeightsAverageOne) {
    // With correct propensities sum(w)/n -> 1, so SN-DR ~ DR.
    LinearEnv env;
    stats::Rng rng(1);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 4000, rng);
    UniformRandomPolicy target(2);
    ConstantRewardModel model(2, 0.1);
    const double dr = doubly_robust(trace, target, model).value;
    const double sndr = self_normalized_doubly_robust(trace, target, model).value;
    EXPECT_NEAR(sndr, dr, 0.02);
}

TEST(SnDr, RobustToMisscaledPropensities) {
    // Scale all propensities by 0.5: IPS and DR double their correction
    // terms; SN-DR renormalizes and stays near the truth.
    LinearEnv env;
    stats::Rng rng(2);
    UniformRandomPolicy logging(2);
    DeterministicPolicy target(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    const double truth = true_policy_value(env, target, 200000, rng);

    stats::Accumulator dr_err, sndr_err;
    for (int run = 0; run < 30; ++run) {
        Trace trace = collect_trace(env, logging, 2000, rng);
        for (auto& t : trace) t.propensity *= 0.5; // corrupt the logs
        ConstantRewardModel model(2, 0.0); // force reliance on the correction
        dr_err.add(std::fabs(doubly_robust(trace, target, model).value - truth));
        sndr_err.add(std::fabs(
            self_normalized_doubly_robust(trace, target, model).value - truth));
    }
    EXPECT_LT(sndr_err.mean(), dr_err.mean() * 0.5);
}

TEST(SnDr, FallsBackToModelWithoutOverlap) {
    Trace trace;
    LoggedTuple t;
    t.decision = 0;
    t.reward = 5.0;
    t.propensity = 1.0;
    trace.add(t);
    DeterministicPolicy always1(2, [](const ClientContext&) { return Decision{1}; });
    ConstantRewardModel model(2, 3.0);
    const EstimateResult result =
        self_normalized_doubly_robust(trace, always1, model);
    EXPECT_DOUBLE_EQ(result.value, 3.0);
    EXPECT_EQ(result.estimator, "SN-DR");
}

TEST(SnDr, PerTupleMeanEqualsValue) {
    LinearEnv env;
    stats::Rng rng(3);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 500, rng);
    DeterministicPolicy target(2, [](const ClientContext&) { return Decision{1}; });
    ConstantRewardModel model(2, 0.2);
    const EstimateResult result =
        self_normalized_doubly_robust(trace, target, model);
    EXPECT_NEAR(stats::mean(result.per_tuple), result.value, 1e-12);
}

TEST(Bernstein, IntervalContainsMeanAndIsWiderThanBootstrap) {
    LinearEnv env;
    stats::Rng rng(4);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 2000, rng);
    UniformRandomPolicy target(2);
    ConstantRewardModel model(2, 0.0);
    const EstimateResult dr = doubly_robust(trace, target, model);

    const auto bernstein = empirical_bernstein_interval(dr);
    const auto bootstrap =
        stats::chunked_bootstrap_mean_ci(dr.per_tuple, dr.value, rng, 500);
    EXPECT_TRUE(bernstein.contains(dr.value));
    EXPECT_GT(bernstein.width(), bootstrap.width()); // assumption-free => wider
}

TEST(Bernstein, CoversTruthAcrossReplications) {
    LinearEnv env;
    stats::Rng rng(5);
    UniformRandomPolicy logging(2);
    UniformRandomPolicy target(2);
    const double truth = true_policy_value(env, target, 200000, rng);
    int covered = 0;
    const int trials = 40;
    for (int i = 0; i < trials; ++i) {
        const Trace trace = collect_trace(env, logging, 800, rng);
        const EstimateResult ips = inverse_propensity(trace, target);
        covered += empirical_bernstein_interval(ips, 0.9).contains(truth);
    }
    EXPECT_GE(covered, trials - 1); // conservative bound covers ~always
}

TEST(MatchingReplay, UnbiasedUnderUniformLoggingAndCountsMatches) {
    LinearEnv env;
    stats::Rng rng(6);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 6000, rng);
    DeterministicPolicy target(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    const double truth = true_policy_value(env, target, 150000, rng);
    const ReplayEstimate replay = matching_replay(trace, target);
    EXPECT_NEAR(replay.match_rate, 0.5, 0.05);
    EXPECT_NEAR(replay.value, truth, 0.1);
}

TEST(MatchingReplay, FallsBackToTraceMeanWithoutMatches) {
    Trace trace;
    LoggedTuple t;
    t.decision = 0;
    t.reward = 7.0;
    t.propensity = 1.0;
    trace.add(t);
    DeterministicPolicy target(2, [](const ClientContext&) { return Decision{1}; });
    const ReplayEstimate replay = matching_replay(trace, target);
    EXPECT_EQ(replay.matches, 0u);
    EXPECT_DOUBLE_EQ(replay.value, 7.0);
}

TEST(Bernstein, Validation) {
    EstimateResult tiny;
    tiny.per_tuple = {1.0};
    EXPECT_THROW(empirical_bernstein_interval(tiny), std::invalid_argument);
    EstimateResult two;
    two.per_tuple = {1.0, 2.0};
    EXPECT_THROW(empirical_bernstein_interval(two, 1.5), std::invalid_argument);
    EXPECT_NO_THROW(empirical_bernstein_interval(two));
}

} // namespace
} // namespace dre::core
