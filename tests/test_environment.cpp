#include "core/environment.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/policy.h"

namespace dre::core {
namespace {

// Two-decision world: context numeric[0] = x in {0, 1}; reward mean is
// x for decision 0 and 1-x for decision 1.
class ToyEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.bernoulli(0.5) ? 1.0 : 0.0}, {});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        const double mean = d == 0 ? c.numeric[0] : 1.0 - c.numeric[0];
        return mean + rng.normal(0.0, 0.1);
    }
    std::size_t num_decisions() const noexcept override { return 2; }
};

TEST(Environment, ExpectedRewardDefaultsToMonteCarlo) {
    ToyEnv env;
    stats::Rng rng(1);
    const ClientContext c({1.0}, {});
    EXPECT_NEAR(env.expected_reward(c, 0, rng, 2000), 1.0, 0.02);
    EXPECT_NEAR(env.expected_reward(c, 1, rng, 2000), 0.0, 0.02);
    EXPECT_THROW(env.expected_reward(c, 0, rng, 0), std::invalid_argument);
}

TEST(CollectTrace, RecordsPropensitiesOfLoggingPolicy) {
    ToyEnv env;
    stats::Rng rng(2);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 500, rng);
    ASSERT_EQ(trace.size(), 500u);
    for (const auto& t : trace) EXPECT_DOUBLE_EQ(t.propensity, 0.5);
    EXPECT_NO_THROW(validate_trace(trace));
}

TEST(CollectTrace, DecisionSpaceMismatchThrows) {
    ToyEnv env;
    stats::Rng rng(3);
    UniformRandomPolicy wrong(3);
    EXPECT_THROW(collect_trace(env, wrong, 10, rng), std::invalid_argument);
}

TEST(TruePolicyValue, MatchesAnalyticValue) {
    ToyEnv env;
    stats::Rng rng(5);
    // Oracle policy: d = x picks mean 1 everywhere.
    DeterministicPolicy oracle(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.5 ? 0 : 1);
    });
    EXPECT_NEAR(true_policy_value(env, oracle, 20000, rng), 1.0, 0.01);
    // Uniform policy: value 0.5.
    UniformRandomPolicy uniform(2);
    EXPECT_NEAR(true_policy_value(env, uniform, 20000, rng), 0.5, 0.01);
    EXPECT_THROW(true_policy_value(env, uniform, 0, rng), std::invalid_argument);
}

TEST(RelativeError, HandlesZeroTruth) {
    EXPECT_DOUBLE_EQ(relative_error(2.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(relative_error(-2.0, -1.0), 0.5);
    EXPECT_DOUBLE_EQ(relative_error(0.0, 0.25), 0.25); // absolute fallback
}

} // namespace
} // namespace dre::core
