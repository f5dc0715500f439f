// Offline policy improvement on top of trace-driven evaluation.
//
// The paper's workflow ends at "which policy is the best?" (Fig. 1); this
// module closes the loop: learn a candidate policy from the logged trace
// (greedy over a fitted reward model, optionally epsilon-smoothed for the
// *next* round of logging, per §4.1's randomization advice), and certify
// it against the incumbent with a paired doubly-robust comparison before
// anyone deploys it. It also owns the one policy-spec grammar every tool
// reads and prints.
#ifndef DRE_CORE_POLICY_LEARNING_H
#define DRE_CORE_POLICY_LEARNING_H

#include <map>
#include <memory>
#include <string>
#include <string_view>

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
const char* to_string(RewardModelKind kind) noexcept;

// The policy-spec grammar, one for every tool: dre_eval, dre_serve and
// perfbench read it, and dre_tune enumerates and prints it.
//   uniform            uniform over the decision space
//   constant:<d>       pin every client to arm d
//   greedy:<m>[:<e>]   argmax of a reward model <m> (tabular | linear |
//                      knn), uniform-smoothed with e in [0,1] (the §4.1
//                      redeploy shape: every arm keeps support)
//   softmax:<m>:<T>    Boltzmann over the model's predictions, T > 0
//   mix:<m>:<d>:<w>    staged rollout: weight w in [0,1] on greedy:<m>,
//                      1-w pinned to arm d (Fig. 7a's "50% of clients")
// A PolicySpec is the parsed descriptor: plain data, never a fitted model,
// so the tuner can move it around, checkpoint and journal it. Fields a kind
// does not use keep their defaults, so parse_policy_spec(to_string(s)) == s.
struct PolicySpec {
    enum class Kind { kUniform, kConstant, kGreedy, kSoftmax, kMixture };

    Kind kind = Kind::kGreedy;
    // Reward model behind greedy / softmax / mixture specs.
    RewardModelKind model = RewardModelKind::kTabular;
    double epsilon = 0.0;        // kGreedy: uniform smoothing in [0, 1]
    double temperature = 1.0;    // kSoftmax: > 0
    Decision arm = 0;            // kConstant / kMixture pin arm
    double mixture_weight = 0.5; // kMixture: weight on the greedy half

    bool operator==(const PolicySpec&) const = default;
};

// The strict parser. Each field is read whole (numbers by std::from_chars,
// finite and inside their ranges); anything else throws
// std::invalid_argument naming the spec. Arms are checked when the spec is
// built, against a decision count.
PolicySpec parse_policy_spec(std::string_view text);

// The canonical rendering: shortest round-trip doubles, a zero epsilon
// omitted. Equal specs render equal bytes, so a rendering serves as a
// journal entry, a cache key and a checkpoint-hash input.
std::string to_string(const PolicySpec& spec);

// Reward models fitted on one trace, at most one per kind: every policy
// built here, and a DR referee of the same kind, share one fit. Fits are
// deterministic and const once made, so sharing one changes no number.
// Fitting is lazy, so one thread at a time calls model() and build(); the
// policies they return may be used from any thread.
class ModelFits {
public:
    // `trace` is non-owning and must outlive this object; the policies and
    // models it hands out need not.
    ModelFits(const Trace& trace, std::size_t decisions);

    // The `kind` model, fitted on first use.
    std::shared_ptr<const RewardModel> model(RewardModelKind kind);

    // The live policy `spec` names, over `decisions` arms. Throws
    // std::invalid_argument when its arm lies outside [0, decisions).
    std::shared_ptr<Policy> build(const PolicySpec& spec);

private:
    const Trace& trace_;
    std::size_t decisions_;
    std::map<RewardModelKind, std::shared_ptr<const RewardModel>> models_;
};

// Parse `spec` and build it over `decisions` arms, fitting on `trace` where
// the spec needs a model. `decisions` is explicit rather than derived from
// the trace: a streaming run fits on a bounded sample whose max decision
// may undershoot the full trace's decision space. Deterministic (no RNG),
// so the same (spec, trace) pair always yields the same policy — the serve
// cache keys policies on exactly this pair.
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
