#include "netsim/assignment_env.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/environment.h"
#include "netsim/server.h"
#include "netsim/state_env.h"
#include "stats/changepoint.h"
#include "stats/rng.h"

namespace dre::netsim {
namespace {

TEST(Server, LatencyGrowsWithLoad) {
    Server server({.base_latency_ms = 10.0, .capacity = 100.0, .load_decay = 0.1});
    const double idle = server.expected_latency_ms();
    server.add_load(50.0);
    const double busy = server.expected_latency_ms();
    EXPECT_DOUBLE_EQ(idle, 10.0);
    EXPECT_DOUBLE_EQ(busy, 20.0); // 10 / (1 - 0.5)
    EXPECT_GT(busy, idle);
}

TEST(Server, LatencyStaysFiniteAtOverload) {
    Server server({.base_latency_ms = 10.0, .capacity = 10.0, .load_decay = 0.0});
    server.add_load(1000.0);
    EXPECT_LT(server.expected_latency_ms(), 10.0 / (1.0 - 0.95) + 1.0);
}

TEST(Server, LoadDecaysOnTick) {
    Server server({.base_latency_ms = 10.0, .capacity = 100.0, .load_decay = 0.5});
    server.add_load(8.0);
    server.tick();
    EXPECT_DOUBLE_EQ(server.utilization(), 4.0 / 100.0);
    server.tick();
    EXPECT_DOUBLE_EQ(server.utilization(), 2.0 / 100.0);
}

TEST(Server, ConfigValidation) {
    EXPECT_THROW(Server({.base_latency_ms = 0.0}), std::invalid_argument);
    EXPECT_THROW(Server({.base_latency_ms = 1.0, .capacity = 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(
        Server({.base_latency_ms = 1.0, .capacity = 1.0, .load_decay = 2.0}),
        std::invalid_argument);
}

TEST(ServerPool, IndexesServersAndValidates) {
    ServerPool pool({{.base_latency_ms = 10.0, .capacity = 100.0},
                     {.base_latency_ms = 10.0, .capacity = 100.0}});
    pool.server(0).add_load(30.0);
    EXPECT_GT(pool.server(0).utilization(), pool.server(1).utilization());
    EXPECT_THROW(pool.server(5), std::out_of_range);
    EXPECT_THROW(ServerPool({}), std::invalid_argument);
}

TEST(ServerSelectionEnv, RewardsAreNegativeLatency) {
    ServerSelectionEnv env(3, 4, 1);
    stats::Rng rng(2);
    const ClientContext c = env.sample_context(rng);
    for (std::size_t d = 0; d < env.num_decisions(); ++d) {
        const double r = env.expected_reward(c, static_cast<Decision>(d), rng, 1);
        EXPECT_LT(r, 0.0);
        EXPECT_GT(r, -2.0); // latencies bounded by ~140ms in this world
    }
}

TEST(ServerSelectionEnv, ExpectedRewardMatchesSampleMean) {
    ServerSelectionEnv env(2, 2, 3);
    stats::Rng rng(4);
    const ClientContext c = env.sample_context(rng);
    double total = 0.0;
    const int samples = 30000;
    for (int i = 0; i < samples; ++i) total += env.sample_reward(c, 1, rng);
    EXPECT_NEAR(total / samples, env.expected_reward(c, 1, rng, 1), 0.01);
}

TEST(CoupledSimulator, TraceHasValidPropensities) {
    CoupledAssignmentSimulator sim(
        {{.base_latency_ms = 20.0, .capacity = 50.0, .load_decay = 0.05},
         {.base_latency_ms = 25.0, .capacity = 50.0, .load_decay = 0.05}});
    stats::Rng rng(5);
    core::UniformRandomPolicy policy(2);
    const Trace trace = sim.run(policy, 300, rng);
    EXPECT_EQ(trace.size(), 300u);
    EXPECT_NO_THROW(validate_trace(trace));
    EXPECT_EQ(sim.utilization_history().size(), 300u);
}

TEST(CoupledSimulator, HerdingDegradesRewards) {
    // Sending everyone to server 0 must be worse than balancing, because of
    // the self-induced load (the §4.1 coupling).
    CoupledAssignmentSimulator sim(
        {{.base_latency_ms = 20.0, .capacity = 30.0, .load_decay = 0.05},
         {.base_latency_ms = 20.0, .capacity = 30.0, .load_decay = 0.05}});
    stats::Rng rng(6);
    core::DeterministicPolicy herd(2, [](const ClientContext&) { return Decision{0}; });
    core::UniformRandomPolicy balanced(2);
    const double herd_value = sim.true_value(herd, 400, rng, 8);
    const double balanced_value = sim.true_value(balanced, 400, rng, 8);
    EXPECT_LT(herd_value, balanced_value);
}

TEST(CoupledSimulator, SelfInducedLoadIsDetectableAsChangepoint) {
    // Start balanced, then herd: utilization jumps, PELT should notice.
    CoupledAssignmentSimulator sim(
        {{.base_latency_ms = 20.0, .capacity = 25.0, .load_decay = 0.02},
         {.base_latency_ms = 20.0, .capacity = 25.0, .load_decay = 0.02}});
    stats::Rng rng(7);
    core::UniformRandomPolicy balanced(2);
    sim.run(balanced, 200, rng);
    std::vector<double> history = sim.utilization_history();
    core::DeterministicPolicy herd(2, [](const ClientContext&) { return Decision{0}; });
    sim.run(herd, 200, rng);
    // Herding doubles per-server arrival rate on server 0; utilization mean
    // over servers stays similar, so look at the *reward*-relevant signal:
    // splice the two utilization histories to emulate a policy switch.
    const std::vector<double>& second = sim.utilization_history();
    history.insert(history.end(), second.begin(), second.end());
    const auto result = stats::pelt(history);
    EXPECT_FALSE(result.changepoints.empty());
}

TEST(StatefulEnv, PeakStateDegradesRewards) {
    StatefulSelectionEnv env(2, 3, 1.25, 8);
    stats::Rng rng(9);
    const ClientContext c = env.sample_context(rng);
    env.set_state(StatefulSelectionEnv::kOffPeak);
    const double off_peak = env.expected_reward(c, 0, rng, 1);
    env.set_state(StatefulSelectionEnv::kPeak);
    const double peak = env.expected_reward(c, 0, rng, 1);
    EXPECT_NEAR(peak, 1.25 * off_peak, 1e-9);
    EXPECT_THROW(env.set_state(42), std::invalid_argument);
}

TEST(StatefulEnv, CollectInStateLabelsTuplesAndRestoresState) {
    StatefulSelectionEnv env(2, 3, 1.25, 10);
    stats::Rng rng(11);
    core::UniformRandomPolicy logging(env.num_decisions());
    env.set_state(StatefulSelectionEnv::kOffPeak);
    const Trace trace =
        env.collect_in_state(logging, 100, StatefulSelectionEnv::kPeak, rng);
    for (const auto& t : trace) EXPECT_EQ(t.state, StatefulSelectionEnv::kPeak);
    EXPECT_EQ(env.state(), StatefulSelectionEnv::kOffPeak);
}

} // namespace
} // namespace dre::netsim
