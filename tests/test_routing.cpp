#include "netsim/routing_env.h"

#include <gtest/gtest.h>

#include "core/environment.h"
#include "netsim/workload.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::netsim {
namespace {

TEST(RoutingEnv, Standard3HasThreePaths) {
    const RoutingEnv env = RoutingEnv::standard3();
    EXPECT_EQ(env.num_decisions(), 3u);
}

TEST(RoutingEnv, ContextsAreZipfSkewedAcrossZones) {
    const RoutingEnv env = RoutingEnv::standard3();
    stats::Rng rng(1);
    std::vector<int> zone_counts(RoutingWorldConfig{}.num_zones, 0);
    for (int i = 0; i < 20000; ++i)
        ++zone_counts[static_cast<std::size_t>(
            env.sample_context(rng).categorical.at(0))];
    // Zipf skew: zone 0 strictly more popular than the last zone.
    EXPECT_GT(zone_counts.front(), 2 * zone_counts.back());
}

TEST(RoutingEnv, ElephantsSufferOnLowCapacityPath) {
    const RoutingEnv env = RoutingEnv::standard3();
    ClientContext mouse({5.0}, {0});
    ClientContext elephant({200.0}, {0});
    // Path 2 has 40 Mbps capacity: the elephant overloads it.
    EXPECT_GT(env.mean_cost_ms(elephant, 2), 2.0 * env.mean_cost_ms(mouse, 2));
    // The high-capacity transit path (1) treats both the same.
    EXPECT_DOUBLE_EQ(env.mean_cost_ms(elephant, 1), env.mean_cost_ms(mouse, 1));
}

TEST(RoutingEnv, LossAddsLatencyEquivalentCost) {
    const RoutingEnv env = RoutingEnv::standard3();
    ClientContext flow({5.0}, {0});
    // Path 0: 25ms base + 0.02 * 800ms loss penalty = 41+zone ms;
    // Path 1: 80ms base + 0.0005 * 800 = 80.4+zone ms.
    EXPECT_LT(env.mean_cost_ms(flow, 0), env.mean_cost_ms(flow, 1));
}

TEST(RoutingEnv, ExpectedRewardMatchesSampleMean) {
    const RoutingEnv env = RoutingEnv::standard3();
    stats::Rng rng(2);
    const ClientContext c = env.sample_context(rng);
    stats::Accumulator acc;
    for (int i = 0; i < 40000; ++i) acc.add(env.sample_reward(c, 1, rng));
    EXPECT_NEAR(acc.mean(), env.expected_reward(c, 1, rng, 1), 0.01);
}

TEST(RoutingEnv, Validation) {
    EXPECT_THROW(RoutingEnv(RoutingWorldConfig{}, {}), std::invalid_argument);
    RoutingWorldConfig bad;
    bad.num_zones = 0;
    EXPECT_THROW(RoutingEnv(bad, {PathConfig{}}), std::invalid_argument);
    const RoutingEnv env = RoutingEnv::standard3();
    EXPECT_THROW(env.mean_cost_ms(ClientContext({1.0}, {0}), 9),
                 std::out_of_range);
    EXPECT_THROW(env.mean_cost_ms(ClientContext({1.0}, {99}), 0),
                 std::out_of_range);
}

TEST(DiurnalCycle, StatesRepeatWithPeriod) {
    const DiurnalCycle cycle = DiurnalCycle::day_night(3, 2);
    EXPECT_EQ(cycle.period(), 5u);
    const std::int32_t off = StatefulSelectionEnv::kOffPeak;
    const std::int32_t peak = StatefulSelectionEnv::kPeak;
    const std::int32_t expected[] = {off, off, off, peak, peak,
                                     off, off, off, peak, peak};
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(cycle.state_at(i), expected[i]);
    EXPECT_DOUBLE_EQ(cycle.fraction_in(off), 0.6);
    EXPECT_DOUBLE_EQ(cycle.fraction_in(peak), 0.4);
    EXPECT_DOUBLE_EQ(cycle.fraction_in(42), 0.0);
}

TEST(DiurnalCycle, Validation) {
    EXPECT_THROW(DiurnalCycle({}), std::invalid_argument);
    EXPECT_THROW(DiurnalCycle({{0, 0}}), std::invalid_argument);
}

TEST(CollectDiurnalTrace, LabelsFollowTheCycle) {
    StatefulSelectionEnv env(2, 3, 1.3, 7);
    stats::Rng rng(3);
    core::UniformRandomPolicy logging(env.num_decisions());
    const DiurnalCycle cycle = DiurnalCycle::day_night(10, 5);
    const Trace trace = collect_diurnal_trace(env, logging, 150, cycle, rng);
    ASSERT_EQ(trace.size(), 150u);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].state, cycle.state_at(i));
    // Roughly 2/3 off-peak tuples.
    EXPECT_EQ(trace.with_state(StatefulSelectionEnv::kOffPeak).size(), 100u);
    EXPECT_EQ(trace.with_state(StatefulSelectionEnv::kPeak).size(), 50u);
}

TEST(CollectDiurnalTrace, PeakTuplesAreWorseOnAverage) {
    StatefulSelectionEnv env(2, 3, 1.5, 9);
    stats::Rng rng(4);
    core::UniformRandomPolicy logging(env.num_decisions());
    const DiurnalCycle cycle = DiurnalCycle::day_night(50, 50);
    const Trace trace = collect_diurnal_trace(env, logging, 4000, cycle, rng);
    const double off_mean = stats::mean(
        trace.with_state(StatefulSelectionEnv::kOffPeak).rewards());
    const double peak_mean =
        stats::mean(trace.with_state(StatefulSelectionEnv::kPeak).rewards());
    EXPECT_LT(peak_mean, off_mean); // rewards are negative latency
}

} // namespace
} // namespace dre::netsim
