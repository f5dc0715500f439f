// Ablation: off-policy *tail* estimation (library extension).
//
// Networking SLOs live in the tail (p95/p99 latency). We measure how well
// the importance-weighted CDF recovers the new policy's p05 reward (= p95
// cost) from logged traces, against a matched-only baseline that uses only
// the tuples whose decision agrees with the new policy.
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/quantile_estimators.h"
#include "netsim/routing_env.h"
#include "stats/summary.h"

using namespace dre;

namespace {

// Empirical quantile of the new policy's reward via fresh simulation.
double true_quantile(const netsim::RoutingEnv& env, const core::Policy& policy,
                     double q, stats::Rng& rng) {
    std::vector<double> rewards;
    rewards.reserve(200000);
    for (int i = 0; i < 200000; ++i) {
        const ClientContext c = env.sample_context(rng);
        const Decision d = policy.sample(c, rng);
        rewards.push_back(env.sample_reward(c, d, rng));
    }
    return stats::quantile(rewards, q);
}

double matched_only_quantile(const Trace& trace, const core::Policy& policy,
                             double q) {
    std::vector<double> matched;
    for (const auto& t : trace) {
        const auto probs = policy.action_probabilities(t.context);
        const auto argmax = static_cast<Decision>(
            std::max_element(probs.begin(), probs.end()) - probs.begin());
        if (argmax == t.decision) matched.push_back(t.reward);
    }
    if (matched.empty()) return stats::quantile(trace.rewards(), q);
    return stats::quantile(matched, q);
}

} // namespace

int main() {
    bench::print_header("Tail estimation: p05 reward from logged flows");

    const netsim::RoutingEnv env = netsim::RoutingEnv::standard3();
    stats::Rng rng(20170715);
    auto base = std::make_shared<core::DeterministicPolicy>(
        env.num_decisions(), [](const ClientContext&) { return Decision{0}; });
    core::EpsilonGreedyPolicy logging(base, 0.3);
    core::DeterministicPolicy target(
        env.num_decisions(), [](const ClientContext& c) {
            return static_cast<Decision>(c.numeric.at(0) > 30.0 ? 1 : 0);
        });

    const double truth_p05 = true_quantile(env, target, 0.05, rng);
    bench::print_value_row("true p05 reward", truth_p05);

    std::printf("%8s %16s %16s %14s\n", "n", "weighted-CDF err",
                "matched-only err", "support");
    for (const std::size_t n : {500u, 1000u, 2000u, 4000u, 8000u}) {
        stats::Accumulator weighted_err, matched_err, support;
        for (int run = 0; run < 30; ++run) {
            const Trace trace = core::collect_trace(env, logging, n, rng);
            const core::OffPolicyDistribution dist(trace, target);
            weighted_err.add(std::fabs(dist.quantile(0.05) - truth_p05));
            matched_err.add(
                std::fabs(matched_only_quantile(trace, target, 0.05) - truth_p05));
            support.add(static_cast<double>(dist.support_size()));
        }
        std::printf("%8zu %16.4f %16.4f %14.0f\n", n, weighted_err.mean(),
                    matched_err.mean(), support.mean());
    }
    std::printf("\nThe weighted CDF uses every overlapping tuple with its\n"
                "importance weight; the matched-only baseline discards\n"
                "exploration data and converges more slowly.\n");
    return 0;
}
