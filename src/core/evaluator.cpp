#include "core/evaluator.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "core/engine.h"
#include "core/parallel.h"
#include "obs/obs.h"

namespace dre::core {

Evaluator::Evaluator(Trace trace, EvaluationConfig config, stats::Rng rng)
    : config_(config), rng_(rng) {
    validate_trace(trace);
    if (trace.empty()) throw std::invalid_argument("Evaluator: empty trace");

    if (config_.estimate_propensities) {
        TabularPropensityModel propensity_model(trace.num_decisions());
        propensity_model.fit(trace);
        trace = with_estimated_propensities(trace, propensity_model);
    }

    if (config_.cross_fit) {
        auto [train, holdout] = trace.split(0.5, rng_);
        if (train.empty() || holdout.empty())
            throw std::invalid_argument("Evaluator: cross-fit split produced empty half");
        model_ = fit_reward_model(config_.reward_model, trace.num_decisions(), train);
        evaluation_trace_ = std::move(holdout);
    } else {
        model_ = fit_reward_model(config_.reward_model, trace.num_decisions(), trace);
        evaluation_trace_ = std::move(trace);
    }
    // Evaluate the model once per (tuple, decision); every evaluation
    // sweep reuses this matrix.
    qhat_ = PredictionMatrix::build(*model_, evaluation_trace_);
}

const RewardModel& Evaluator::reward_model() const {
    return *model_;
}

PolicyEvaluation Evaluator::evaluate_with(const Policy& new_policy,
                                          stats::Rng& rng, int ci_replicates,
                                          double ci_level) const {
    DRE_SPAN("evaluator.evaluate");
    const std::uint64_t eval_start_ns = obs::now_ns();
    EvaluationEngine engine(new_policy, qhat_.num_decisions(),
                            config_.estimator_options, rng, ci_replicates,
                            ci_level);
    // Each chunk folds a span of the cached trace against its rows of the
    // cached q̂ matrix and writes its own slice of the DR contributions.
    const std::span<const LoggedTuple> tuples = evaluation_trace_.tuples();
    const std::size_t n = tuples.size();
    std::vector<double> dr(n);
    engine.fold_in_order(
        0, (n + par::kReduceChunk - 1) / par::kReduceChunk,
        [&](std::uint64_t c) {
            const std::size_t begin = c * par::kReduceChunk;
            const std::size_t len = std::min(par::kReduceChunk, n - begin);
            return engine.fold(c, tuples.subspan(begin, len),
                               qhat_.row(begin), dr.data() + begin);
        });
    PolicyEvaluation out = engine.finalize();
    out.dr.per_tuple = std::move(dr);
    // Timing-derived, so diagnostics-only — never fingerprinted.
    const double elapsed_s =
        static_cast<double>(obs::now_ns() - eval_start_ns) / 1e9;
    if (elapsed_s > 0.0) {
        DRE_GAUGE_SET("evaluator.tuples_per_sec",
                      static_cast<double>(n) / elapsed_s);
    }
    DRE_COUNTER_ADD("evaluator.tuples_evaluated", n);
    DRE_COUNTER_INC("evaluator.policies_evaluated");
    return out;
}

PolicyEvaluation Evaluator::evaluate(const Policy& new_policy) const {
    return evaluate_with(new_policy, rng_, config_.ci_replicates,
                         config_.ci_level);
}

PolicyEvaluation Evaluator::evaluate_seeded(const Policy& new_policy,
                                            stats::Rng rng, int ci_replicates,
                                            double ci_level) const {
    return evaluate_with(new_policy, rng,
                         ci_replicates < 0 ? config_.ci_replicates
                                           : ci_replicates,
                         ci_level < 0.0 ? config_.ci_level : ci_level);
}

Evaluator::Comparison Evaluator::compare(
    const std::vector<const Policy*>& policies) const {
    if (policies.empty()) throw std::invalid_argument("Evaluator::compare: no policies");
    for (const Policy* policy : policies)
        if (!policy) throw std::invalid_argument("Evaluator::compare: null policy");

    // One advance of the shared generator, then a split stream per policy:
    // the evaluations are independent of each other and of the thread
    // count, so they can run concurrently yet stay bit-reproducible.
    DRE_SPAN("evaluator.compare");
    const stats::Rng base = rng_.split();
    Comparison comparison;
    comparison.evaluations.resize(policies.size());
    par::parallel_for(policies.size(), [&](std::size_t i) {
        stats::Rng policy_rng = base.split(i);
        comparison.evaluations[i] =
            evaluate_with(*policies[i], policy_rng, config_.ci_replicates,
                          config_.ci_level);
    });
    for (std::size_t i = 1; i < comparison.evaluations.size(); ++i) {
        if (comparison.evaluations[i].value() >
            comparison.evaluations[comparison.best_index].value())
            comparison.best_index = i;
    }
    return comparison;
}

obs::Report make_policy_report(std::string_view policy_spec,
                               const PolicyEvaluation& result) {
    obs::Report out;
    const std::string policy_section = "policy " + std::string(policy_spec);
    out.set(policy_section, "DM", result.dm.value);
    out.set(policy_section, "IPS", result.ips.value);
    out.set(policy_section, "SNIPS", result.snips.value);
    out.set(policy_section, "SWITCH-DR", result.switch_dr.value);
    if (result.dr_ci) {
        char dr_row[128];
        std::snprintf(dr_row, sizeof(dr_row),
                      "%10.4f   %.0f%% CI [%.4f, %.4f]", result.dr.value,
                      100.0 * result.dr_ci->level, result.dr_ci->lower,
                      result.dr_ci->upper);
        out.set(policy_section, "DR", dr_row);
    } else {
        out.set(policy_section, "DR", result.dr.value);
    }
    out.set("diagnostics", "effective sample size",
            result.overlap.effective_sample_size);
    out.set("diagnostics", "effective sample %",
            100.0 * result.overlap.effective_sample_fraction);
    out.set("diagnostics", "mean importance weight",
            result.overlap.mean_weight);
    out.set("diagnostics", "max importance weight",
            result.overlap.max_weight);
    out.set("diagnostics", "zero-weight tuples %",
            100.0 * result.overlap.zero_weight_fraction);
    return out;
}

void widen_dr_ci(PolicyEvaluation& result, double coverage) {
    if (!result.dr_ci || !(coverage > 0.0 && coverage < 1.0)) return;
    stats::ConfidenceInterval& ci = *result.dr_ci;
    ci.lower = ci.point - (ci.point - ci.lower) / coverage;
    ci.upper = ci.point + (ci.upper - ci.point) / coverage;
}

} // namespace dre::core
