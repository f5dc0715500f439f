#include "core/subgroup.h"

#include <gtest/gtest.h>

#include "core/environment.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

// Two groups with opposite preferences: group 0 wants d=0 (+1 vs -1),
// group 1 wants d=1.
class GroupedEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({}, {rng.bernoulli(0.5) ? 1 : 0});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        const bool aligned = c.categorical[0] == d;
        return (aligned ? 1.0 : -1.0) + rng.normal(0.0, 0.1);
    }
    std::size_t num_decisions() const noexcept override { return 2; }
};

Trace make_trace(std::size_t n, stats::Rng& rng) {
    GroupedEnv env;
    UniformRandomPolicy logging(2);
    return collect_trace(env, logging, n, rng);
}

TEST(Subgroup, PerGroupValuesRevealHiddenRegression) {
    stats::Rng rng(1);
    const Trace trace = make_trace(4000, rng);
    TabularRewardModel model(2);
    model.fit(trace);

    // Candidate: always d=0. Great for group 0 (+1), terrible for group 1.
    DeterministicPolicy candidate(2, [](const ClientContext&) { return Decision{0}; });
    const auto results =
        subgroup_analysis(trace, candidate, model, group_by_categorical(0));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].group, 0);
    EXPECT_EQ(results[1].group, 1);
    EXPECT_NEAR(results[0].dr.value, 1.0, 0.1);
    EXPECT_NEAR(results[1].dr.value, -1.0, 0.1);
    EXPECT_TRUE(results[0].reliable);
    EXPECT_TRUE(results[1].reliable);
    // The global average (~0) hides the regression the slices reveal.
    const double global = doubly_robust(trace, candidate, model).value;
    EXPECT_NEAR(global, 0.0, 0.1);
}

TEST(Subgroup, SmallGroupsAreFlaggedUnreliable) {
    stats::Rng rng(2);
    Trace trace = make_trace(2000, rng);
    // Inject a tiny third group.
    for (int i = 0; i < 5; ++i) {
        LoggedTuple t;
        t.context.categorical = {2};
        t.decision = 0;
        t.reward = 1.0;
        t.propensity = 0.5;
        trace.add(t);
    }
    TabularRewardModel model(2);
    model.fit(trace);
    UniformRandomPolicy candidate(2);
    const auto results =
        subgroup_analysis(trace, candidate, model, group_by_categorical(0));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].reliable);
    EXPECT_FALSE(results[2].reliable); // 5 tuples < default ESS floor of 30
    EXPECT_EQ(results[2].tuples, 5u);
}

TEST(Subgroup, Validation) {
    stats::Rng rng(4);
    const Trace trace = make_trace(100, rng);
    TabularRewardModel model(2);
    model.fit(trace);
    UniformRandomPolicy policy(2);
    EXPECT_THROW(subgroup_analysis(trace, policy, model, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(subgroup_analysis(Trace{}, policy, model,
                                   group_by_categorical(0)),
                 std::invalid_argument);
    // Out-of-range categorical index surfaces as an exception.
    EXPECT_THROW(subgroup_analysis(trace, policy, model, group_by_categorical(7)),
                 std::out_of_range);
}

} // namespace
} // namespace dre::core
