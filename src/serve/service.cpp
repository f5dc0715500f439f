#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

#include "core/policy_learning.h"
#include "obs/obs.h"
#include "stats/bootstrap.h"
#include "store/sharded.h"
#include "trace/validate.h"

namespace dre::serve {
namespace {

// One cache key from its fields, each prefixed with its length, so no two
// field lists share a key whatever bytes a path or spec holds.
std::string cache_key(std::initializer_list<std::string_view> fields) {
    std::string key;
    for (const std::string_view field : fields) {
        key += std::to_string(field.size());
        key += ':';
        key += field;
    }
    return key;
}

void check_deadline(const DeadlineFn& deadline, const char* phase) {
    if (deadline && deadline()) throw DeadlineExceeded(phase);
}

// The shortest prefix that honors both the coverage target and dimensional
// compatibility: a fitted policy / q̂ matrix sized for the full trace's
// decision space must stay valid over the prefix, so the prefix is grown
// (deterministically — a pure function of the trace) until it contains the
// largest decision id the full trace has.
std::size_t degraded_prefix_len(const Trace& trace, double coverage) {
    const std::size_t n = trace.size();
    const auto target = static_cast<std::size_t>(
        std::ceil(std::clamp(coverage, 0.0, 1.0) * static_cast<double>(n)));
    std::size_t len = std::clamp<std::size_t>(target, 1, n);
    const std::size_t max_decision = trace.num_decisions() - 1;
    std::size_t need = n; // fallback: the full trace always qualifies
    for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::size_t>(trace[i].decision) == max_decision) {
            need = i + 1;
            break;
        }
    }
    return std::max(len, need);
}

} // namespace

ResultMsg EvalService::evaluate(const EvaluateMsg& request,
                                EvalPhases* phases,
                                const DeadlineFn& deadline) {
    DRE_SPAN("serve.evaluate");
    return answer(request, std::nullopt, phases, deadline);
}

ResultMsg EvalService::evaluate_degraded(const EvaluateMsg& request,
                                         double coverage, EvalPhases* phases,
                                         const DeadlineFn& deadline) {
    DRE_SPAN("serve.evaluate_degraded");
    return answer(request, coverage, phases, deadline);
}

ResultMsg EvalService::answer(const EvaluateMsg& request,
                              std::optional<double> coverage,
                              EvalPhases* phases, const DeadlineFn& deadline) {
    if (request.trace.empty())
        throw std::invalid_argument("empty trace path");
    if (request.policy.empty())
        throw std::invalid_argument("empty policy spec");
    // Validate the model name and replicate count before touching the
    // trace, so a bad request fails fast and never caches anything under a
    // malformed key.
    const core::RewardModelKind model_kind =
        core::parse_reward_model_kind(request.model);
    if (!stats::valid_replicate_count(request.ci_replicates))
        throw std::invalid_argument(
            "ci_replicates must be 0 or in [2, " +
            std::to_string(stats::kMaxBootstrapReplicates) + "], got " +
            std::to_string(request.ci_replicates));

    const std::uint64_t cache_start_ns = obs::now_ns();
    // Same input handling and structural gate as the CLI: the in-memory
    // estimators need every tuple sound, so a defective trace is rejected
    // with the census a dre_eval run would print.
    bool trace_hit = false;
    const EvalCache::TracePtr cached_trace = cache_.trace(
        request.trace,
        [&] {
            DRE_SPAN("serve.load_trace");
            Trace loaded = store::load_trace(request.trace);
            require_evaluable(loaded);
            return std::make_shared<const Trace>(std::move(loaded));
        },
        &trace_hit);
    const Trace& trace = *cached_trace;

    // The policy is always the full-trace fit — brownout shares the cache
    // key with the full-fidelity path, so it never pays a model fit, and
    // the target policy under test is identical in both modes.
    bool policy_hit = false;
    const EvalCache::PolicyPtr policy = cache_.policy(
        cache_key({request.trace, request.policy}),
        [&] {
            DRE_SPAN("serve.fit_policy");
            return EvalCache::PolicyPtr(core::parse_policy_spec(
                request.policy, trace, trace.num_decisions()));
        },
        &policy_hit);

    // A brownout evaluator is its own cached artifact, keyed by the prefix
    // length it evaluates (empty for the full trace) — deterministic, so
    // every degraded answer for this (trace, model, coverage) is
    // byte-identical across the fleet.
    const std::size_t len =
        coverage ? degraded_prefix_len(trace, *coverage) : trace.size();
    const double actual_coverage =
        static_cast<double>(len) / static_cast<double>(trace.size());
    const auto build_evaluator = [&] {
        core::EvaluationConfig config;
        config.reward_model = model_kind;
        // cross_fit and estimate_propensities stay off, so this
        // constructor draws nothing from its RNG and the instance is
        // seed-independent — see cache.h. CI settings are per-call
        // overrides on evaluate_seeded, never baked in here.
        return std::make_shared<const core::Evaluator>(
            Trace(std::vector<LoggedTuple>(
                trace.begin(),
                trace.begin() + static_cast<std::ptrdiff_t>(len))),
            config, stats::Rng(1));
    };
    bool evaluator_hit = false;
    const EvalCache::EvaluatorPtr evaluator = cache_.evaluator(
        cache_key({request.trace, request.model,
                   coverage ? std::to_string(len) : std::string()}),
        [&]() -> EvalCache::EvaluatorPtr {
            if (coverage) {
                DRE_SPAN("serve.fit_evaluator_degraded");
                return build_evaluator();
            }
            DRE_SPAN("serve.fit_evaluator");
            return build_evaluator();
        },
        &evaluator_hit);
    check_deadline(deadline, "cache");

    const std::uint64_t compute_start_ns = obs::now_ns();
    core::PolicyEvaluation result = evaluator->evaluate_seeded(
        *policy, stats::Rng(request.seed),
        static_cast<int>(request.ci_replicates), 0.95);
    // Estimates already average over exactly the evaluated tuples (the
    // exact denominator rescaling — no phantom mass from a skipped
    // suffix); a brownout then widens its CI like streaming degrade mode.
    if (coverage) core::widen_dr_ci(result, actual_coverage);
    check_deadline(deadline, "compute");
    const std::uint64_t render_start_ns = obs::now_ns();

    // The response is the CLI's stdout, byte for byte: header line, then
    // the shared report renderer. A brownout keeps the full trace's census
    // in the header (that is the trace the client asked about) and adds a
    // trailing degraded: line with what was actually evaluated, so a
    // degraded answer never masquerades as the real one.
    char header[96];
    std::snprintf(header, sizeof(header), "trace: %zu tuples, %zu decisions\n",
                  trace.size(), trace.num_decisions());
    ResultMsg out;
    out.text = header;
    out.text += core::make_policy_report(request.policy, result).to_text();
    out.dr = result.dr.value;
    out.cache_hit = evaluator_hit;
    if (coverage) {
        char footer[160];
        std::snprintf(footer, sizeof(footer),
                      "degraded: brownout evaluated %zu/%zu tuples "
                      "(coverage %.6f); DR CI half-widths widened by "
                      "1/coverage\n",
                      len, trace.size(), actual_coverage);
        out.text += footer;
        out.degraded = true;
        out.coverage = actual_coverage;
    }
    check_deadline(deadline, "serialize");
    DRE_COUNTER_INC("serve.requests_evaluated");
    if (coverage) DRE_COUNTER_INC("serve.requests_degraded");
    if (phases != nullptr) {
        phases->trace_hit = trace_hit;
        phases->policy_hit = policy_hit;
        phases->evaluator_hit = evaluator_hit;
        const std::uint64_t end_ns = obs::now_ns();
        phases->cache_ms =
            static_cast<double>(compute_start_ns - cache_start_ns) / 1e6;
        phases->compute_ms =
            static_cast<double>(render_start_ns - compute_start_ns) / 1e6;
        phases->serialize_ms =
            static_cast<double>(end_ns - render_start_ns) / 1e6;
        DRE_HIST_RECORD("serve.cache_ms", phases->cache_ms);
        DRE_HIST_RECORD("serve.compute_ms", phases->compute_ms);
    }
    return out;
}

} // namespace dre::serve
