#include "core/drift.h"

#include <gtest/gtest.h>

#include "core/environment.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "core/world_state.h"
#include "netsim/state_env.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

Trace flat_trace(std::size_t n, double mean, stats::Rng& rng,
                 std::int32_t decision = 0) {
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        LoggedTuple t;
        t.decision = decision;
        t.reward = mean + rng.normal(0.0, 0.3);
        t.propensity = 0.5;
        trace.add(std::move(t));
    }
    return trace;
}

TEST(Drift, NoFalseAlarmOnStationaryTrace) {
    stats::Rng rng(1);
    const Trace trace = flat_trace(600, 1.0, rng);
    const DriftReport report = detect_reward_drift(trace);
    EXPECT_FALSE(report.drift_detected());
    ASSERT_EQ(report.num_segments(), 1u);
    EXPECT_NEAR(report.segment_means[0], 1.0, 0.05);
}

TEST(Drift, DetectsMidTraceRegimeShift) {
    stats::Rng rng(2);
    Trace trace = flat_trace(400, 1.0, rng);
    for (const auto& t : flat_trace(400, 3.0, rng)) trace.add(t);
    const DriftReport report = detect_reward_drift(trace);
    ASSERT_TRUE(report.drift_detected());
    EXPECT_NEAR(static_cast<double>(report.changepoints[0]), 400.0, 10.0);
    ASSERT_GE(report.num_segments(), 2u);
    EXPECT_NEAR(report.segment_means.front(), 1.0, 0.1);
    EXPECT_NEAR(report.segment_means.back(), 3.0, 0.1);
}

TEST(Drift, FeedsStateMatchedEvaluationEndToEnd) {
    // A diurnal trace from the stateful environment: detect the segments
    // from rewards alone, then evaluate against the detected peak segment.
    netsim::StatefulSelectionEnv env(2, 3, 1.8, 21);
    stats::Rng rng(4);
    UniformRandomPolicy logging(env.num_decisions());
    Trace trace = env.collect_in_state(
        logging, 800, netsim::StatefulSelectionEnv::kOffPeak, rng);
    for (const auto& t : env.collect_in_state(
             logging, 800, netsim::StatefulSelectionEnv::kPeak, rng))
        trace.add(t);
    // Wipe the labels: the detector must recover them.
    for (auto& t : trace) t.state = LoggedTuple::kNoState;

    const DriftReport report = detect_reward_drift(trace);
    ASSERT_TRUE(report.drift_detected());
    // The tuples after the last detected change-point are the peak regime.
    constexpr std::int32_t kLastSegment = 1;
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].state = i >= report.changepoints.back() ? kLastSegment : 0;

    DeterministicPolicy target(env.num_decisions(),
                               [](const ClientContext&) { return Decision{0}; });
    TabularRewardModel model(env.num_decisions());
    model.fit(trace.with_state(kLastSegment));
    const double matched =
        doubly_robust_state_matched(trace, target, model, kLastSegment).value;

    env.set_state(netsim::StatefulSelectionEnv::kPeak);
    const double truth = true_policy_value(env, target, 40000, rng);
    EXPECT_NEAR(matched, truth, 0.12 * std::abs(truth));
}

TEST(Drift, Validation) {
    EXPECT_THROW(detect_reward_drift(Trace{}), std::invalid_argument);
}

} // namespace
} // namespace dre::core
