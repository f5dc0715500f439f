#include "core/policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "stats/rng.h"

namespace dre::core {
namespace {

ClientContext context_with(double x) {
    return ClientContext({x}, {});
}

double sum(const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(ValidateDistribution, AcceptsProperDistribution) {
    EXPECT_NO_THROW(validate_distribution(std::vector<double>{0.5, 0.5}, 2));
}

TEST(ValidateDistribution, RejectsBadInput) {
    EXPECT_THROW(validate_distribution(std::vector<double>{0.5, 0.5}, 3),
                 std::invalid_argument);
    EXPECT_THROW(validate_distribution(std::vector<double>{0.7, 0.7}, 2),
                 std::invalid_argument);
    EXPECT_THROW(validate_distribution(std::vector<double>{-0.5, 1.5}, 2),
                 std::invalid_argument);
}

TEST(DeterministicPolicy, PutsAllMassOnChoice) {
    DeterministicPolicy policy(3, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric.at(0) > 0 ? 2 : 0);
    });
    const auto probs = policy.action_probabilities(context_with(1.0));
    EXPECT_DOUBLE_EQ(probs[2], 1.0);
    EXPECT_DOUBLE_EQ(sum(probs), 1.0);
    EXPECT_DOUBLE_EQ(policy.probability(context_with(-1.0), 0), 1.0);
    EXPECT_DOUBLE_EQ(policy.probability(context_with(-1.0), 2), 0.0);
}

TEST(DeterministicPolicy, RejectsInvalidChooser) {
    EXPECT_THROW(DeterministicPolicy(0, [](const ClientContext&) { return 0; }),
                 std::invalid_argument);
    DeterministicPolicy bad(2, [](const ClientContext&) { return Decision{5}; });
    EXPECT_THROW(bad.action_probabilities(context_with(0.0)), std::out_of_range);
}

TEST(UniformRandomPolicy, UniformProbabilities) {
    UniformRandomPolicy policy(4);
    const auto probs = policy.action_probabilities(context_with(0.0));
    for (double p : probs) EXPECT_DOUBLE_EQ(p, 0.25);
    EXPECT_THROW(policy.probability(context_with(0.0), 9), std::out_of_range);
}

TEST(PolicySample, FollowsDistribution) {
    UniformRandomPolicy policy(3);
    stats::Rng rng(1);
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 30000; ++i)
        ++counts[static_cast<std::size_t>(policy.sample(context_with(0.0), rng))];
    for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(EpsilonGreedyPolicy, MixesWithUniform) {
    auto base = std::make_shared<DeterministicPolicy>(
        4, [](const ClientContext&) { return Decision{1}; });
    EpsilonGreedyPolicy policy(base, 0.2);
    const auto probs = policy.action_probabilities(context_with(0.0));
    EXPECT_NEAR(probs[1], 0.8 + 0.05, 1e-12);
    EXPECT_NEAR(probs[0], 0.05, 1e-12);
    EXPECT_NEAR(sum(probs), 1.0, 1e-12);
}

TEST(EpsilonGreedyPolicy, EpsilonZeroAndOneLimits) {
    auto base = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext&) { return Decision{0}; });
    EpsilonGreedyPolicy greedy(base, 0.0);
    EXPECT_DOUBLE_EQ(greedy.action_probabilities(context_with(0.0))[0], 1.0);
    EpsilonGreedyPolicy uniform(base, 1.0);
    EXPECT_DOUBLE_EQ(uniform.action_probabilities(context_with(0.0))[0], 0.5);
    EXPECT_THROW(EpsilonGreedyPolicy(base, 1.5), std::invalid_argument);
    EXPECT_THROW(EpsilonGreedyPolicy(nullptr, 0.5), std::invalid_argument);
}

TEST(SoftmaxPolicy, PrefersHigherScores) {
    SoftmaxPolicy policy(
        3, [](const ClientContext&, Decision d) { return static_cast<double>(d); },
        1.0);
    const auto probs = policy.action_probabilities(context_with(0.0));
    EXPECT_LT(probs[0], probs[1]);
    EXPECT_LT(probs[1], probs[2]);
    EXPECT_NEAR(sum(probs), 1.0, 1e-12);
}

TEST(SoftmaxPolicy, TemperatureControlsSharpness) {
    const auto scorer = [](const ClientContext&, Decision d) {
        return static_cast<double>(d);
    };
    SoftmaxPolicy cold(3, scorer, 0.1);
    SoftmaxPolicy hot(3, scorer, 10.0);
    EXPECT_GT(cold.action_probabilities(context_with(0.0))[2],
              hot.action_probabilities(context_with(0.0))[2]);
    EXPECT_THROW(SoftmaxPolicy(3, scorer, 0.0), std::invalid_argument);
}

TEST(SoftmaxPolicy, NumericallyStableForHugeScores) {
    SoftmaxPolicy policy(
        2, [](const ClientContext&, Decision d) { return d == 0 ? 1e6 : 0.0; });
    const auto probs = policy.action_probabilities(context_with(0.0));
    EXPECT_NEAR(probs[0], 1.0, 1e-9);
    EXPECT_NEAR(sum(probs), 1.0, 1e-12);
}

TEST(MixturePolicy, InterpolatesComponents) {
    auto a = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext&) { return Decision{0}; });
    auto b = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext&) { return Decision{1}; });
    MixturePolicy mix(a, b, 0.3);
    const auto probs = mix.action_probabilities(context_with(0.0));
    EXPECT_NEAR(probs[0], 0.3, 1e-12);
    EXPECT_NEAR(probs[1], 0.7, 1e-12);
}

TEST(MixturePolicy, RejectsMismatchedComponents) {
    auto a = std::make_shared<UniformRandomPolicy>(2);
    auto b = std::make_shared<UniformRandomPolicy>(3);
    EXPECT_THROW(MixturePolicy(a, b, 0.5), std::invalid_argument);
    EXPECT_THROW(MixturePolicy(a, a, 1.5), std::invalid_argument);
}

} // namespace
} // namespace dre::core
