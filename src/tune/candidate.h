// Candidate policy space for `dre::tune` (layer 1 of the tuning stack).
//
// A candidate is a core::PolicySpec (core/policy_learning.h): the
// descriptor the search and the online tuner move around, checkpoint and
// log, in the one spec grammar every tool reads. core::ModelFits builds it
// into a live policy against a concrete trace, so a promoted candidate is
// exactly reproducible from (spec, trace).
#ifndef DRE_TUNE_CANDIDATE_H
#define DRE_TUNE_CANDIDATE_H

#include <vector>

#include "core/policy_learning.h"
#include "core/reward_model.h"

namespace dre::tune {

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

std::vector<core::PolicySpec> enumerate(const CandidateSpace& space);

} // namespace dre::tune

#endif // DRE_TUNE_CANDIDATE_H
