#include "core/estimators.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

// Deterministic two-decision trace builder.
Trace simple_trace() {
    Trace trace;
    // context x in {0,1}; logged by uniform policy.
    const double rewards[4] = {1.0, 2.0, 3.0, 4.0};
    for (int i = 0; i < 4; ++i) {
        LoggedTuple t;
        t.context.numeric = {static_cast<double>(i % 2)};
        t.decision = static_cast<Decision>(i / 2);
        t.reward = rewards[i];
        t.propensity = 0.5;
        trace.add(std::move(t));
    }
    return trace;
}

TEST(DirectMethod, AveragesModelUnderNewPolicy) {
    const Trace trace = simple_trace();
    ConstantRewardModel model(2, 7.0);
    UniformRandomPolicy policy(2);
    const EstimateResult result = direct_method(trace, policy, model);
    EXPECT_DOUBLE_EQ(result.value, 7.0);
    EXPECT_EQ(result.per_tuple.size(), trace.size());
    EXPECT_EQ(result.estimator, "DM");
}

TEST(Ips, MatchingPolicyReproducesTraceMean) {
    // If mu_new == mu_old, weights are 1 and IPS = mean logged reward.
    const Trace trace = simple_trace();
    UniformRandomPolicy policy(2);
    const EstimateResult result = inverse_propensity(trace, policy);
    EXPECT_DOUBLE_EQ(result.value, 2.5);
}

TEST(Ips, WeightsAreNewOverOld) {
    const Trace trace = simple_trace();
    DeterministicPolicy always0(2, [](const ClientContext&) { return Decision{0}; });
    const std::vector<double> weights = importance_weights(trace, always0);
    EXPECT_DOUBLE_EQ(weights[0], 2.0); // logged d=0, mu_new=1, mu_old=.5
    EXPECT_DOUBLE_EQ(weights[2], 0.0); // logged d=1 has zero new probability
}

TEST(Ips, ZeroOverlapGivesZeroEstimate) {
    Trace trace;
    LoggedTuple t;
    t.decision = 0;
    t.reward = 5.0;
    t.propensity = 0.5;
    trace.add(t);
    DeterministicPolicy always1(2, [](const ClientContext&) { return Decision{1}; });
    EXPECT_DOUBLE_EQ(inverse_propensity(trace, always1).value, 0.0);
    EXPECT_DOUBLE_EQ(self_normalized_ips(trace, always1).value, 0.0);
}

TEST(ClippedIps, CapsLargeWeights) {
    Trace trace;
    LoggedTuple t;
    t.decision = 0;
    t.reward = 1.0;
    t.propensity = 0.01; // weight 100 under always0
    trace.add(t);
    DeterministicPolicy always0(2, [](const ClientContext&) { return Decision{0}; });
    EXPECT_DOUBLE_EQ(inverse_propensity(trace, always0).value, 100.0);
    EstimatorOptions options;
    options.weight_clip = 10.0;
    EXPECT_DOUBLE_EQ(clipped_ips(trace, always0, options).value, 10.0);
    options.weight_clip = 0.0;
    EXPECT_THROW(clipped_ips(trace, always0, options), std::invalid_argument);
}

TEST(Snips, NormalizesByTotalWeight) {
    Trace trace;
    for (int i = 0; i < 2; ++i) {
        LoggedTuple t;
        t.decision = 0;
        t.reward = i == 0 ? 1.0 : 3.0;
        t.propensity = i == 0 ? 0.5 : 0.25;
        trace.add(t);
    }
    DeterministicPolicy always0(2, [](const ClientContext&) { return Decision{0}; });
    // weights are 2 and 4; SNIPS = (2*1 + 4*3)/(2+4) = 14/6.
    EXPECT_NEAR(self_normalized_ips(trace, always0).value, 14.0 / 6.0, 1e-12);
    // per-tuple mean reproduces the value.
    const EstimateResult r = self_normalized_ips(trace, always0);
    double total = 0.0;
    for (double x : r.per_tuple) total += x;
    EXPECT_NEAR(total / static_cast<double>(r.per_tuple.size()), r.value, 1e-12);
}

// --- The paper's two special cases (§3): ---

TEST(DoublyRobust, ReducesToIpsWhenPoliciesAgreeDeterministically) {
    // "If the new and old policy deterministically take the same action d_k
    //  the ... DR estimator for this client/tuple is equal to the IPS
    //  estimator."
    Trace trace;
    for (int i = 0; i < 6; ++i) {
        LoggedTuple t;
        t.context.numeric = {static_cast<double>(i)};
        t.decision = 0;
        t.reward = static_cast<double>(i);
        t.propensity = 1.0; // deterministic old policy
        trace.add(std::move(t));
    }
    DeterministicPolicy same(2, [](const ClientContext&) { return Decision{0}; });
    ConstantRewardModel arbitrary_model(2, 123.0); // wildly wrong model
    const double dr = doubly_robust(trace, same, arbitrary_model).value;
    const double ips = inverse_propensity(trace, same).value;
    EXPECT_NEAR(dr, ips, 1e-12);
}

TEST(DoublyRobust, ReducesToDmWhenModelIsPerfect) {
    // "If the reward estimate from the DM is equal to the true reward ...
    //  the DR estimator for this client/tuple is equal to the DM estimator."
    Trace trace;
    for (int i = 0; i < 6; ++i) {
        LoggedTuple t;
        t.context.numeric = {static_cast<double>(i)};
        t.decision = static_cast<Decision>(i % 2);
        t.reward = 10.0 * (i % 2) + t.context.numeric[0]; // deterministic reward
        t.propensity = 0.5;
        trace.add(std::move(t));
    }
    OracleRewardModel perfect(2, [](const ClientContext& c, Decision d) {
        return 10.0 * d + c.numeric.at(0);
    });
    DeterministicPolicy new_policy(2,
                                   [](const ClientContext&) { return Decision{1}; });
    const double dr = doubly_robust(trace, new_policy, perfect).value;
    const double dm = direct_method(trace, new_policy, perfect).value;
    EXPECT_NEAR(dr, dm, 1e-12);
}

TEST(DoublyRobust, ZeroModelReducesToIps) {
    const Trace trace = simple_trace();
    UniformRandomPolicy policy(2);
    ConstantRewardModel zero(2, 0.0);
    EXPECT_NEAR(doubly_robust(trace, policy, zero).value,
                inverse_propensity(trace, policy).value, 1e-12);
}

TEST(SwitchDr, FallsBackToModelAboveThreshold) {
    Trace trace;
    LoggedTuple t;
    t.decision = 0;
    t.reward = 100.0;
    t.propensity = 0.001; // weight 1000
    trace.add(t);
    DeterministicPolicy always0(2, [](const ClientContext&) { return Decision{0}; });
    ConstantRewardModel model(2, 1.0);
    EstimatorOptions options;
    options.switch_threshold = 10.0;
    // Weight exceeds tau: estimate is pure DM = 1.0.
    EXPECT_DOUBLE_EQ(switch_doubly_robust(trace, always0, model, options).value, 1.0);
    options.switch_threshold = 1e6;
    // Threshold large: same as DR.
    EXPECT_DOUBLE_EQ(switch_doubly_robust(trace, always0, model, options).value,
                     doubly_robust(trace, always0, model).value);
}

TEST(Estimators, InputValidation) {
    UniformRandomPolicy policy(2);
    ConstantRewardModel model(2, 0.0);
    EXPECT_THROW(direct_method(Trace{}, policy, model), std::invalid_argument);
    EXPECT_THROW(inverse_propensity(Trace{}, policy), std::invalid_argument);

    // Trace decision outside policy space.
    Trace trace;
    LoggedTuple t;
    t.decision = 5;
    t.propensity = 0.5;
    trace.add(t);
    EXPECT_THROW(inverse_propensity(trace, policy), std::invalid_argument);

    // Model/policy decision mismatch.
    const Trace good = simple_trace();
    ConstantRewardModel wrong(3, 0.0);
    EXPECT_THROW(direct_method(good, policy, wrong), std::invalid_argument);
}

} // namespace
} // namespace dre::core
