// Offline DR-based policy search (layer 2): the learning half of Dudík et
// al.'s "Doubly Robust Policy Evaluation and Learning".
//
// Direct policy optimization over an enumerable candidate space: split the
// logged trace, fit the referee and every candidate's reward model on the
// train half (one fit per kind, shared), score each built candidate with
// the doubly-robust estimator on the held-out half (one shared
// PredictionMatrix for the referee), and rank. CIs come from the
// chunk-keyed bootstrap so the leaderboard carries honest uncertainty, not
// just point scores.
//
// Determinism contract: the returned leaderboard — including the canonical
// to_text() rendering — is bit-identical for a fixed (trace, candidates,
// options, rng state) at any DRE_THREADS. Candidate scoring parallelizes
// over candidates; each candidate's bootstrap stream is keyed by its index
// (base.split(i)), and ranking breaks score ties by candidate index.
#ifndef DRE_TUNE_OFFLINE_H
#define DRE_TUNE_OFFLINE_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/policy_learning.h"
#include "core/reward_model.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::tune {

struct OfflineSearchOptions {
    double train_fraction = 0.5; // in (0, 1)
    // Reward model used by the DR *scorer* on the holdout (independent of
    // the candidates' own models — the evaluation is the referee, not a
    // contestant).
    core::RewardModelKind eval_model = core::RewardModelKind::kTabular;
    int bootstrap_replicates = 200; // 0 disables CIs
    double ci_level = 0.95;
};

struct ScoredCandidate {
    core::PolicySpec candidate;
    std::size_t index = 0; // position in the input candidate list
    double dr_value = 0.0;
    stats::ConfidenceInterval ci; // zero-width when replicates == 0
};

struct Leaderboard {
    std::vector<ScoredCandidate> ranked; // descending dr_value
    std::size_t train_size = 0;
    std::size_t holdout_size = 0;
    core::RewardModelKind eval_model = core::RewardModelKind::kTabular;
    int bootstrap_replicates = 0;
    double ci_level = 0.95;

    // Canonical, byte-diffable rendering (%.17g values) — what the
    // determinism tests and the bench identity check compare.
    std::string to_text() const;
};

// Throws std::invalid_argument on an empty candidate list, an empty trace,
// or options outside their ranges. Advances `rng` twice (split protocol):
// once for the train/holdout split, once for the bootstrap base stream.
Leaderboard search_policies(const Trace& trace,
                            const std::vector<core::PolicySpec>& candidates,
                            const OfflineSearchOptions& options,
                            stats::Rng& rng);

} // namespace dre::tune

#endif // DRE_TUNE_OFFLINE_H
