// Candidate policy space for `dre::tune` (layer 1 of the tuning stack).
//
// A PolicyCandidate is a small, serializable *descriptor* of a policy — the
// thing the search and the online tuner move around, checkpoint, and log.
// The descriptor never holds a fitted model: materialize() turns it into a
// live core::Policy against a concrete trace, using the same
// learn_greedy_policy / fit_reward_model machinery the CLI's policy specs
// use, so a promoted candidate is exactly reproducible from (spec, trace).
//
// Four families, mirroring the repo's policy classes:
//   kGreedy    greedy:<model>[:<epsilon>]  — argmax of a fitted reward
//              model, epsilon-uniform smoothed (the §4.1 redeploy shape)
//   kSoftmax   softmax:<model>:<T>         — Boltzmann over the fitted
//              model's scores at temperature T
//   kConstant  constant:<d>                — pin every client to arm d
//   kMixture   mix:<model>:<d>:<w>         — staged rollout: weight w on
//              the greedy policy, 1-w pinned to arm d (Fig. 7a's "50% of
//              clients use the new assignment")
//
// greedy/constant specs round-trip through core::parse_policy_spec.
#ifndef DRE_TUNE_CANDIDATE_H
#define DRE_TUNE_CANDIDATE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/policy_learning.h"
#include "core/reward_model.h"
#include "trace/trace.h"

namespace dre::tune {

enum class CandidateKind { kGreedy, kSoftmax, kConstant, kMixture };

struct PolicyCandidate {
    CandidateKind kind = CandidateKind::kGreedy;
    // Reward model behind greedy / softmax / mixture candidates.
    core::RewardModelKind model = core::RewardModelKind::kTabular;
    double epsilon = 0.0;       // kGreedy: uniform smoothing in [0, 1]
    double temperature = 1.0;   // kSoftmax: > 0
    Decision arm = 0;           // kConstant / kMixture pin arm
    double mixture_weight = 0.5; // kMixture: weight on the greedy half

    // Canonical spec string (see the family table above). Deterministic:
    // equal candidates render equal bytes, so specs are usable as journal
    // entries, cache keys, and checkpoint payloads.
    std::string spec() const;
};

// Pre-fitted reward models shared across candidates of one search round
// (fit once per kind, not once per candidate).
using FittedModels =
    std::map<core::RewardModelKind, std::shared_ptr<const core::RewardModel>>;

// Fit every model kind `candidates` reference on `trace`.
FittedModels fit_candidate_models(const std::vector<PolicyCandidate>& candidates,
                                  const Trace& trace, std::size_t decisions);

// Turn a descriptor into a live policy. Model-backed candidates read their
// fitted model from `models` (fit_candidate_models above); throws
// std::invalid_argument when the kind is missing, when the arm is outside
// [0, decisions), or when a parameter is out of range.
std::shared_ptr<core::Policy> materialize(const PolicyCandidate& candidate,
                                          const FittedModels& models,
                                          std::size_t decisions);

// Convenience: fit-and-materialize against a single trace.
std::shared_ptr<core::Policy> materialize(const PolicyCandidate& candidate,
                                          const Trace& trace,
                                          std::size_t decisions);

// Deterministic candidate generator. enumerate() walks the cross products
// in a fixed order (greedy: model-major then epsilon; softmax: model-major
// then temperature; constants by arm; mixtures: model-major then weight),
// so the candidate list — and therefore every downstream leaderboard index
// and checkpoint — is a pure function of the config.
struct CandidateSpace {
    std::size_t num_decisions = 0; // required
    std::vector<core::RewardModelKind> models = {
        core::RewardModelKind::kTabular};
    std::vector<double> epsilons = {0.0};  // greedy smoothing grid
    std::vector<double> temperatures;      // empty = no softmax candidates
    bool include_constants = false;        // one candidate per arm
    std::vector<double> mixture_weights;   // empty = no mixture candidates
    Decision mixture_arm = 0;              // pin arm for mixtures
};

std::vector<PolicyCandidate> enumerate(const CandidateSpace& space);

} // namespace dre::tune

#endif // DRE_TUNE_CANDIDATE_H
