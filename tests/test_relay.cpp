#include "relay/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimators.h"
#include "core/reward_model.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::relay {
namespace {

TEST(RelayEnv, NatPenaltyAndRelayRescue) {
    RelayWorldConfig config;
    RelayEnv env(config);
    stats::Rng rng(1);
    ClientContext call({}, {0, 1, 0}); // public
    ClientContext nat_call({}, {0, 1, 1});

    const double public_direct = env.expected_reward(call, 0, rng, 1);
    const double nat_direct = env.expected_reward(nat_call, 0, rng, 1);
    EXPECT_NEAR(public_direct - nat_direct, config.nat_lastmile_penalty, 1e-9);

    const double nat_relayed = env.expected_reward(nat_call, 1, rng, 1);
    EXPECT_GT(nat_relayed, nat_direct); // relaying helps NAT-ed calls
}

TEST(RelayEnv, Validation) {
    RelayEnv env(RelayWorldConfig{});
    stats::Rng rng(2);
    EXPECT_THROW(env.expected_reward(ClientContext({}, {0, 1}), 0, rng, 1),
                 std::invalid_argument);
    EXPECT_THROW(env.expected_reward(ClientContext({}, {0, 1, 0}), 99, rng, 1),
                 std::out_of_range);
    RelayWorldConfig bad;
    bad.nat_fraction = 2.0;
    EXPECT_THROW(RelayEnv{bad}, std::invalid_argument);
}

TEST(LoggingPolicy, RoutesNatCallsToRelaysOnly) {
    RelayWorldConfig config;
    const auto logging = make_nat_logging_policy(config, 0.1);
    const auto nat_probs =
        logging->action_probabilities(ClientContext({}, {2, 3, 1}));
    const auto public_probs =
        logging->action_probabilities(ClientContext({}, {2, 3, 0}));
    // Greedy mass on a relay for NAT-ed, on direct for public.
    EXPECT_LT(nat_probs[0], 0.2);
    EXPECT_GT(public_probs[0], 0.8);
}

TEST(StripNat, RemovesOnlyTheNatFlag) {
    const ClientContext full({1.5}, {2, 3, 1});
    const ClientContext stripped = strip_nat(full);
    EXPECT_EQ(stripped.categorical, (ClientContext::Categorical{2, 3}));
    EXPECT_EQ(stripped.numeric, full.numeric);
    EXPECT_THROW(strip_nat(ClientContext({}, {1})), std::invalid_argument);
}

TEST(WithoutNatFeature, PreservesEverythingElse) {
    RelayEnv env(RelayWorldConfig{});
    stats::Rng rng(3);
    const auto logging = make_nat_logging_policy(env.config(), 0.2);
    const Trace trace = core::collect_trace(env, *logging, 100, rng);
    const Trace blind = without_nat_feature(trace);
    ASSERT_EQ(blind.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(blind[i].decision, trace[i].decision);
        EXPECT_DOUBLE_EQ(blind[i].reward, trace[i].reward);
        EXPECT_EQ(blind[i].context.categorical.size(), 2u);
    }
}

TEST(Fig3Shape, ViaMatchingIsBiasedDrWithNatIsNot) {
    RelayWorldConfig config;
    RelayEnv env(config);
    stats::Rng rng(4);
    const auto logging = make_nat_logging_policy(config, 0.15);
    const auto target = make_relay_all_policy(config);
    const double truth = core::true_policy_value(env, *target, 60000, rng);

    stats::Accumulator via_err, dr_blind_err, dr_full_err;
    for (int run = 0; run < 12; ++run) {
        const Trace trace = core::collect_trace(env, *logging, 3000, rng);

        // VIA-style matching on (src, dst) ignoring NAT: biased low, because
        // relayed calls in the trace are mostly NAT-ed (worse last mile).
        via_err.add(core::relative_error(truth, via_matching_estimate(trace, *target)));

        // DR with the NAT-blind feature set.
        const Trace blind = without_nat_feature(trace);
        core::TabularRewardModel blind_model(env.num_decisions());
        blind_model.fit(blind);
        // Target policy works on blind contexts too (uses src/dst only).
        const double dr_blind =
            core::doubly_robust(blind, *target, blind_model).value;
        dr_blind_err.add(core::relative_error(truth, dr_blind));

        // DR with the NAT feature included.
        core::TabularRewardModel full_model(env.num_decisions());
        full_model.fit(trace);
        const double dr_full =
            core::doubly_robust(trace, *target, full_model).value;
        dr_full_err.add(core::relative_error(truth, dr_full));
    }
    EXPECT_LT(dr_full_err.mean(), via_err.mean());
    EXPECT_LT(dr_blind_err.mean(), via_err.mean());
}

TEST(ViaMatching, FallsBackWhenPairUnseen) {
    Trace trace;
    LoggedTuple t;
    t.context.categorical = {0, 1, 0};
    t.decision = 0;
    t.reward = 4.0;
    t.propensity = 1.0;
    trace.add(t);
    RelayWorldConfig config;
    const auto target = make_relay_all_policy(config);
    // The target picks a relay that was never logged: falls back to the
    // trace mean (4.0).
    EXPECT_DOUBLE_EQ(via_matching_estimate(trace, *target), 4.0);
}

} // namespace
} // namespace dre::relay
