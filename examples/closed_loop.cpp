// Closing the loop: log -> evaluate -> learn -> certify -> deploy -> repeat.
//
// The paper's Fig. 1 workflow run for several rounds on the CDN/bitrate
// world. Each round we (1) log traffic under the current policy (kept
// epsilon-greedy, per §4.1's plea for randomness), (2) learn a greedy
// candidate from the logs, (3) certify the candidate's DR lift with a
// paired bootstrap CI, and (4) deploy it only if certified. Ground-truth
// values show the loop actually improving the system.
#include <cstdio>
#include <memory>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/policy_learning.h"

using namespace dre;

int main() {
    cdn::VideoQualityEnv world{cdn::CdnWorldConfig{}};
    stats::Rng rng(51);
    constexpr double kExploration = 0.1;
    constexpr int kRounds = 4;
    constexpr std::size_t kClientsPerRound = 6000;

    // Round 0 incumbent: uniform random (a fresh deployment).
    std::shared_ptr<core::Policy> incumbent =
        std::make_shared<core::UniformRandomPolicy>(world.num_decisions());

    std::printf("%6s %18s %18s %10s %10s\n", "round", "incumbent (true)",
                "candidate (true)", "DR lift", "deploy?");
    for (int round = 0; round < kRounds; ++round) {
        // 1. Log a round of traffic under the incumbent.
        const Trace trace =
            core::collect_trace(world, *incumbent, kClientsPerRound, rng);

        // Split the logs: learn on one half, certify on the other. Learning
        // and certifying on the same tuples would let the candidate surf the
        // split's noise and produce falsely-certified "improvements"
        // (winner's curse) — the offline cousin of §2.2's pitfalls.
        const auto [learn_split, certify_split] = trace.split(0.5, rng);

        // 2. Learn a candidate: greedy over a k-NN reward model, wrapped
        //    epsilon-greedy so the *next* round still explores.
        const auto candidate = core::learn_greedy_policy(
            learn_split, core::RewardModelKind::kKnn, world.num_decisions(),
            kExploration);

        // 3. Certify the candidate offline, on data it has never seen.
        core::KnnRewardModel model(world.num_decisions(), 10);
        model.fit(certify_split);
        const core::ImprovementReport report = core::certify_improvement(
            certify_split, *incumbent, *candidate,
            core::PredictionMatrix::build(model, certify_split), rng, 500);

        // Ground truth for the printout only — a real operator cannot do this.
        const double incumbent_truth =
            core::true_policy_value(world, *incumbent, 60000, rng);
        const double candidate_truth =
            core::true_policy_value(world, *candidate, 60000, rng);

        std::printf("%6d %18.4f %18.4f %10.4f %10s\n", round, incumbent_truth,
                    candidate_truth, report.estimated_lift,
                    report.certified ? "yes" : "no");

        // 4. Deploy only certified improvements.
        if (report.certified) incumbent = candidate;
    }

    std::printf("\nfinal policy true value: %.4f (uniform baseline was %.4f)\n",
                core::true_policy_value(world, *incumbent, 100000, rng),
                core::true_policy_value(
                    world, core::UniformRandomPolicy(world.num_decisions()),
                    100000, rng));
    std::printf("\nNote the loop keeps epsilon=%.0f%% exploration in every\n"
                "deployed policy — without it, the next round's logs could\n"
                "not evaluate anything (the §4.1 coverage argument).\n",
                100.0 * kExploration);
    return 0;
}
