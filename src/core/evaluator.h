// One-call evaluation harness: run the full estimator suite on a trace and
// compare candidate policies ("Which policy is the best?" — Figure 1).
//
// Evaluator owns the reward-model fit and the q̂ matrix over its trace;
// each evaluation is one fused sweep of the shared evaluation engine
// (core/engine.h) per 4096-tuple chunk, over spans of the cached trace
// and row slices of the cached matrix — no tuple copies, no model calls,
// one policy call per tuple. evaluate_streaming drives the same engine, so
// the two paths agree bit for bit by construction.
#ifndef DRE_CORE_EVALUATOR_H
#define DRE_CORE_EVALUATOR_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/propensity.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "obs/report.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::core {

struct EvaluationConfig {
    RewardModelKind reward_model = RewardModelKind::kTabular;
    // When true, re-estimate logging propensities from the trace instead of
    // trusting the logged ones (paper §2.1's "in practice" caveat).
    bool estimate_propensities = false;
    EstimatorOptions estimator_options;
    // Fit the reward model on a random half of the trace and evaluate on the
    // other half (avoids the optimistic bias of fitting and evaluating on
    // the same data).
    bool cross_fit = false;
    // Bootstrap CI settings (0 replicates disables CIs).
    int ci_replicates = 0;
    double ci_level = 0.95;
};

// Only dr.per_tuple is filled (by Evaluator, for the DR CI and callers
// that resample it); the other per-tuple vectors stay empty, and
// evaluate_streaming fills none.
struct PolicyEvaluation {
    EstimateResult dm;
    EstimateResult ips;
    EstimateResult snips;
    EstimateResult dr;
    EstimateResult switch_dr;
    OverlapDiagnostics overlap;
    std::optional<stats::ConfidenceInterval> dr_ci;

    // The headline number: DR (paper's recommendation).
    double value() const noexcept { return dr.value; }
};

class Evaluator {
public:
    Evaluator(Trace trace, EvaluationConfig config, stats::Rng rng);

    // Evaluate one candidate policy.
    PolicyEvaluation evaluate(const Policy& new_policy) const;

    // Evaluate with an explicit caller-owned RNG instead of the shared
    // mutable stream, so many threads can evaluate on one shared Evaluator
    // concurrently and the result depends only on the arguments. With
    // cross_fit and estimate_propensities off, the constructor never draws
    // from its RNG, so `evaluate_seeded(p, Rng(seed))` on a cached
    // Evaluator reproduces `Evaluator(trace, config, Rng(seed)).evaluate(p)`
    // byte for byte — the serve layer's determinism contract rests on this.
    // Negative ci_replicates/ci_level inherit the config; non-negative
    // values override per call, so one cached instance answers requests
    // with different --ci settings.
    PolicyEvaluation evaluate_seeded(const Policy& new_policy, stats::Rng rng,
                                     int ci_replicates = -1,
                                     double ci_level = -1.0) const;

    // Evaluate several candidates and return the index of the DR-best one.
    // Candidates are evaluated concurrently (dre::par); each gets its own
    // split RNG stream keyed by its index, so the result is bit-identical
    // for any DRE_THREADS setting.
    struct Comparison {
        std::vector<PolicyEvaluation> evaluations;
        std::size_t best_index = 0;
    };
    Comparison compare(const std::vector<const Policy*>& policies) const;

    const Trace& evaluation_trace() const noexcept { return evaluation_trace_; }
    const RewardModel& reward_model() const;

    // The shared q̂[tuple × decision] matrix: the fitted model evaluated
    // once at every (evaluation tuple, decision) pair in the constructor.
    // Every evaluate()/compare() sweep reads its rows instead of
    // re-querying the model, with bit-identical results.
    const PredictionMatrix& prediction_matrix() const noexcept { return qhat_; }

private:
    PolicyEvaluation evaluate_with(const Policy& new_policy, stats::Rng& rng,
                                   int ci_replicates, double ci_level) const;

    EvaluationConfig config_;
    mutable stats::Rng rng_;
    Trace evaluation_trace_;     // tuples the estimators average over
    std::unique_ptr<RewardModel> model_;
    PredictionMatrix qhat_;      // q̂ over evaluation_trace_ × decisions
};

// The canonical result document for one policy evaluation: a "policy
// <spec>" section with the five estimates (DR rendered with its CI when
// present) and a "diagnostics" section with the overlap numbers. This is
// what dre_eval prints and what a serve Result frame carries, so server
// responses are byte-diffable against CLI stdout by construction.
obs::Report make_policy_report(std::string_view policy_spec,
                               const PolicyEvaluation& result);

// Coverage-qualifies a partial result (streaming degrade mode, serve
// brownout): divides the DR CI half-widths by `coverage`, the evaluated
// fraction of the trace. Deterministic, monotone in the skipped mass, and
// the identity without a CI or for coverage outside (0, 1).
void widen_dr_ci(PolicyEvaluation& result, double coverage);

} // namespace dre::core

#endif // DRE_CORE_EVALUATOR_H
