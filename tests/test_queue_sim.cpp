#include "netsim/queue_sim.h"

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::netsim {
namespace {

// Poisson arrivals at `rate` per second over `horizon_s` seconds, all
// routed to server 0.
std::vector<QueueRequest> poisson_arrivals(double rate, double horizon_s,
                                           stats::Rng& rng) {
    std::vector<QueueRequest> requests;
    for (double t = rng.exponential(rate); t < horizon_s; t += rng.exponential(rate))
        requests.push_back({t, 0});
    return requests;
}

TEST(QueueSim, Validation) {
    EXPECT_THROW(QueueSimulator({}), std::invalid_argument);
    EXPECT_THROW(QueueSimulator({0.0}), std::invalid_argument);
    const QueueSimulator sim({1.0});
    stats::Rng rng(1);
    EXPECT_THROW(sim.run({{0.0, 5}}, rng), std::invalid_argument); // bad server
    EXPECT_THROW(sim.run({{1.0, 0}, {0.5, 0}}, rng), std::invalid_argument);
}

TEST(QueueSim, IdleServerMeansNoWaiting) {
    const QueueSimulator sim({10.0});
    stats::Rng rng(2);
    // Requests far apart: each finds the server idle.
    const auto outcomes =
        sim.run({{0.0, 0}, {100.0, 0}, {200.0, 0}}, rng);
    for (const auto& o : outcomes) {
        EXPECT_DOUBLE_EQ(o.wait_s, 0.0);
        EXPECT_GT(o.service_s, 0.0);
    }
}

TEST(QueueSim, BackToBackRequestsQueueUp) {
    const QueueSimulator sim({1.0}); // mean service 1s
    stats::Rng rng(3);
    // 50 simultaneous arrivals: waits must be (weakly) increasing.
    std::vector<QueueRequest> burst(50, {0.0, 0});
    const auto outcomes = sim.run(burst, rng);
    for (std::size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_GE(outcomes[i].wait_s, outcomes[i - 1].wait_s);
    EXPECT_GT(outcomes.back().wait_s, 10.0); // ~49 services deep
}

TEST(QueueSim, MatchesMm1SojournFormula) {
    // M/M/1: E[sojourn] = 1 / (mu - lambda). lambda=4, mu=5 -> 1.0s.
    const QueueSimulator sim({5.0});
    stats::Rng rng(4);
    stats::Accumulator sojourn;
    // Long horizon for steady state; discard the warm-up period.
    const auto outcomes = sim.run(poisson_arrivals(4.0, 20000.0, rng), rng);
    for (std::size_t i = outcomes.size() / 10; i < outcomes.size(); ++i)
        sojourn.add(outcomes[i].sojourn_s());
    EXPECT_NEAR(sojourn.mean(), 1.0, 0.1);
}

TEST(QueueSim, FasterServerHasShorterSojourns) {
    stats::Rng rng(5);
    // Two single-server sims under the same load.
    const QueueSimulator slow({2.0}), fast({8.0});
    stats::Accumulator slow_acc, fast_acc;
    for (const auto& o : slow.run(poisson_arrivals(1.0, 5000.0, rng), rng))
        slow_acc.add(o.sojourn_s());
    for (const auto& o : fast.run(poisson_arrivals(1.0, 5000.0, rng), rng))
        fast_acc.add(o.sojourn_s());
    EXPECT_LT(fast_acc.mean(), slow_acc.mean());
}

} // namespace
} // namespace dre::netsim
