// Offline policy improvement on top of trace-driven evaluation.
//
// The paper's workflow ends at "which policy is the best?" (Fig. 1); this
// module closes the loop: learn a candidate policy from the logged trace
// (greedy over a fitted reward model, optionally epsilon-smoothed for the
// *next* round of logging, per §4.1's randomization advice), and certify
// it against the incumbent with a paired doubly-robust comparison before
// anyone deploys it.
#ifndef DRE_CORE_POLICY_LEARNING_H
#define DRE_CORE_POLICY_LEARNING_H

#include <memory>
#include <string>

#include "core/diagnostics.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::core {

// Policy that plays argmax_d r^(c, d) of a reward model, mixed with
// epsilon-uniform exploration. The argmax is the first maximum of one
// predict_row, so the lowest decision wins a tie.
class GreedyModelPolicy final : public Policy {
public:
    GreedyModelPolicy(std::shared_ptr<const RewardModel> model, double epsilon = 0.0);

    std::vector<double> action_probabilities(const ClientContext& context) const override;
    void action_probabilities_into(const ClientContext& context,
                                   std::vector<double>& out) const override;
    std::size_t num_decisions() const noexcept override {
        return model_->num_decisions();
    }

    Decision greedy_decision(const ClientContext& context) const;
    const RewardModel& model() const noexcept { return *model_; }

private:
    // Fills `row` with the model's predictions for `context` and returns
    // the decision of their first maximum.
    Decision argmax_row(const ClientContext& context,
                        std::vector<double>& row) const;

    std::shared_ptr<const RewardModel> model_;
    double epsilon_;
};

// Fit a reward model of `kind` on `trace` and wrap it greedily.
std::shared_ptr<GreedyModelPolicy> learn_greedy_policy(const Trace& trace,
                                                       RewardModelKind kind,
                                                       std::size_t num_decisions,
                                                       double epsilon = 0.0);

// The CLI / serve-protocol model vocabulary: "tabular" | "linear" | "knn".
// Throws std::invalid_argument on anything else.
RewardModelKind parse_reward_model_kind(const std::string& name);

// Parse a policy spec — "uniform", "constant:<d>", "greedy:<model>", or
// "greedy:<model>:<epsilon>" (uniform-smoothed redeploy shape; epsilon must
// parse fully and lie in [0,1], anything else is std::invalid_argument) —
// into a policy over `decisions` arms, fitting on `trace` where the spec
// needs a
// model. `decisions` is explicit rather than derived from the trace: a
// streaming run fits on a bounded sample whose max decision may undershoot
// the full trace's decision space. Deterministic (no RNG), so the same
// (spec, trace) pair always yields the same policy — the serve cache keys
// greedy policies on exactly this pair.
std::shared_ptr<Policy> parse_policy_spec(const std::string& spec,
                                          const Trace& trace,
                                          std::size_t decisions);

// Paired off-policy comparison of a candidate against the incumbent: DR
// values for both on the same tuples, read off one q̂ matrix, plus a
// chunk-keyed bootstrap CI (stats::chunked_bootstrap_mean_ci) on the
// per-tuple *difference* (paired, so shared noise cancels). The CI's point
// is the DR lift. dre_eval --compare and dre_tune's promotion gate both
// certify through this one function.
struct ImprovementReport {
    double incumbent_value = 0.0;
    double candidate_value = 0.0;
    double estimated_lift = 0.0; // candidate - incumbent
    stats::ConfidenceInterval lift_ci;
    // True iff the CI's lower bound is positive: the candidate is certified
    // better at the CI's confidence level.
    bool certified = false;
};

// `qhat` must be built over `trace` (PredictionMatrix::build). Advances
// `rng` once, as chunked_bootstrap_mean_ci does.
ImprovementReport certify_improvement(const Trace& trace, const Policy& incumbent,
                                      const Policy& candidate,
                                      const PredictionMatrix& qhat,
                                      stats::Rng& rng,
                                      int bootstrap_replicates = 1000,
                                      double level = 0.95);

} // namespace dre::core

#endif // DRE_CORE_POLICY_LEARNING_H
