// Tail-aware traffic engineering from logged flow records.
//
// A network operator logged flows routed by an epsilon-greedy version of
// the current egress policy and wants to evaluate a candidate policy that
// routes elephants over the high-capacity transit path — caring about p95
// completion cost, not just the mean. Demonstrates the routing substrate,
// off-policy quantiles/CVaR, and improvement certification.
#include <cstdio>
#include <memory>

#include "core/environment.h"
#include "core/policy_learning.h"
#include "core/quantile_estimators.h"
#include "netsim/routing_env.h"

using namespace dre;

int main() {
    const netsim::RoutingEnv world = netsim::RoutingEnv::standard3();
    stats::Rng rng(41);

    // Incumbent: always the short peering path (path 0), 20% exploration.
    auto incumbent_base = std::make_shared<core::DeterministicPolicy>(
        world.num_decisions(), [](const ClientContext&) { return Decision{0}; });
    core::EpsilonGreedyPolicy incumbent(incumbent_base, 0.2);

    const Trace trace = core::collect_trace(world, incumbent, 10000, rng);
    std::printf("logged %zu flows under the incumbent egress policy\n",
                trace.size());

    // Candidate: elephants (> 30 Mbps) take the clean transit path.
    core::DeterministicPolicy candidate(
        world.num_decisions(), [](const ClientContext& c) {
            return static_cast<Decision>(c.numeric.at(0) > 30.0 ? 1 : 0);
        });

    core::TabularRewardModel model(world.num_decisions());
    model.fit(trace);

    // Mean comparison with certification.
    const core::ImprovementReport report = core::certify_improvement(
        trace, incumbent, candidate, core::PredictionMatrix::build(model, trace),
        rng);
    std::printf("\nmean reward (-cost/100):\n");
    std::printf("  incumbent  %8.4f\n", report.incumbent_value);
    std::printf("  candidate  %8.4f\n", report.candidate_value);
    std::printf("  lift       %8.4f  95%% CI [%.4f, %.4f]  -> %s\n",
                report.estimated_lift, report.lift_ci.lower,
                report.lift_ci.upper,
                report.certified ? "CERTIFIED improvement"
                                 : "not certified, keep incumbent");

    // Tail comparison: p95 cost and CVaR of the worst 5% of flows.
    const core::OffPolicyDistribution incumbent_dist(trace, incumbent);
    const core::OffPolicyDistribution candidate_dist(trace, candidate);
    std::printf("\ntail behaviour (reward = -cost/100, lower = worse):\n");
    std::printf("  %-22s %12s %12s\n", "", "incumbent", "candidate");
    std::printf("  %-22s %12.4f %12.4f\n", "p5 reward (p95 cost)",
                incumbent_dist.quantile(0.05), candidate_dist.quantile(0.05));
    std::printf("  %-22s %12.4f %12.4f\n", "CVaR (worst 5%)",
                incumbent_dist.cvar_lower(0.05),
                candidate_dist.cvar_lower(0.05));

    // Sanity check against ground truth.
    std::printf("\nground-truth means:\n");
    std::printf("  incumbent  %8.4f\n",
                core::true_policy_value(world, incumbent, 200000, rng));
    std::printf("  candidate  %8.4f\n",
                core::true_policy_value(world, candidate, 200000, rng));
    return 0;
}
