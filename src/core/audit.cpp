#include "core/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/diagnostics.h"
#include "core/drift.h"
#include "core/policy_learning.h"
#include "stats/hypothesis.h"
#include "trace/validate.h"

namespace dre::core {

namespace {

std::string format(const char* fmt, double a, double b = 0.0) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, fmt, a, b);
    return buffer;
}

void add(std::vector<AuditFinding>& findings, AuditSeverity severity,
         std::string code, std::string message, double metric) {
    findings.push_back(
        {severity, std::move(code), std::move(message), metric});
}

// Pull column `get` for tuples [begin, end).
template <typename Getter>
std::vector<double> column(const Trace& trace, std::size_t begin, std::size_t end,
                           Getter get) {
    std::vector<double> out;
    out.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) out.push_back(get(trace[i]));
    return out;
}

// Structural defects via the shared trace/validate.h classifier, reported
// under its reason codes (propensities are handled by check_propensities
// below, which adds IPS-specific context to the same code).
void check_structure(const Trace& trace, std::vector<AuditFinding>& findings) {
    const auto counts = count_defects(trace, trace.num_decisions());
    const struct {
        const char* code;
        const char* what;
    } kStructural[] = {
        {reason_code(TupleDefect::kNonFiniteReward),
         "NaN/Inf rewards poison every estimator sum"},
        {reason_code(TupleDefect::kNonFiniteContext),
         "NaN/Inf context features break reward models and matching"},
        {reason_code(TupleDefect::kDecisionOutOfRange),
         "decisions outside the trace's decision space index nothing"},
    };
    for (const auto& s : kStructural) {
        const auto it = counts.find(s.code);
        if (it == counts.end()) continue;
        add(findings, AuditSeverity::kCritical, s.code,
            format("%.0f tuples are structurally invalid (",
                   static_cast<double>(it->second)) +
                s.code + "): " + s.what,
            static_cast<double>(it->second));
    }
}

void check_propensities(const Trace& trace, const AuditOptions& options,
                        std::vector<AuditFinding>& findings) {
    double min_p = 1.0;
    std::size_t invalid = 0;
    std::size_t ones = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double p = trace[i].propensity;
        if (!(p > 0.0) || p > 1.0 || !std::isfinite(p)) {
            ++invalid;
            continue;
        }
        min_p = std::min(min_p, p);
        if (p == 1.0) ++ones;
    }
    if (invalid > 0) {
        add(findings, AuditSeverity::kCritical, "invalid-propensity",
            format("%.0f tuples have propensities outside (0, 1]; IPS/DR "
                   "weights are undefined for them",
                   static_cast<double>(invalid)),
            static_cast<double>(invalid));
        return;
    }
    if (ones == trace.size()) {
        add(findings, AuditSeverity::kCritical, "deterministic-logging",
            "every propensity is exactly 1: the logging policy never "
            "randomized, so no other policy has support in this trace",
            1.0);
        return;
    }
    if (min_p < options.thin_support_propensity) {
        add(findings, AuditSeverity::kWarning, "thin-support",
            format("minimum logged propensity is %.2e; importance weights up "
                   "to %.1f are possible — expect heavy-tailed IPS",
                   min_p, 1.0 / min_p),
            min_p);
    }
}

void check_overlap(const Trace& trace, const Policy& target,
                   const AuditOptions& options,
                   std::vector<AuditFinding>& findings) {
    const OverlapDiagnostics overlap = overlap_diagnostics(trace, target);
    if (overlap.effective_sample_fraction < options.min_ess_fraction) {
        add(findings, AuditSeverity::kWarning, "low-ess",
            format("effective sample size is %.1f (%.1f%% of the trace); "
                   "weighted estimates rest on a handful of tuples",
                   overlap.effective_sample_size,
                   100.0 * overlap.effective_sample_fraction),
            overlap.effective_sample_fraction);
    }
    if (overlap.zero_weight_fraction > options.max_zero_weight_fraction) {
        add(findings, AuditSeverity::kWarning, "zero-overlap",
            format("%.1f%% of tuples carry zero weight under the target "
                   "policy — the logging policy almost never agreed with it",
                   100.0 * overlap.zero_weight_fraction),
            overlap.zero_weight_fraction);
    }
    const double deviation = std::fabs(overlap.mean_weight - 1.0);
    if (deviation > options.max_mean_weight_deviation) {
        // A target learned from a reward model was most likely fit on these
        // very tuples, so it favours their logged decisions; that, not the
        // logged propensities, is the likelier cause.
        const bool learned =
            dynamic_cast<const GreedyModelPolicy*>(&target) != nullptr;
        add(findings, AuditSeverity::kWarning, "propensity-mismatch",
            format(learned
                       ? "mean importance weight is %.2f (should be ~1): the "
                         "target is learned from a reward model, and one fit "
                         "on these tuples favours their logged decisions; "
                         "fit it on a split the evaluation does not use "
                         "(dre_tune --offline)"
                       : "mean importance weight is %.2f (should be ~1): logged "
                         "propensities are inconsistent with the observed "
                         "decisions or the target lacks support",
                   overlap.mean_weight),
            overlap.mean_weight);
    }
}

void check_drift(const Trace& trace, std::vector<AuditFinding>& findings) {
    const DriftReport drift = detect_reward_drift(trace);
    if (drift.drift_detected()) {
        add(findings, AuditSeverity::kWarning, "reward-drift",
            format("reward change-points split the trace into %.0f regimes; "
                   "a single pooled estimate mixes different worlds "
                   "(state-match per segment instead)",
                   static_cast<double>(drift.num_segments())),
            static_cast<double>(drift.num_segments()));
    }
}

void check_context_shift(const Trace& trace, const AuditOptions& options,
                         std::vector<AuditFinding>& findings) {
    const std::size_t half = trace.size() / 2;
    const std::size_t dims = trace[0].context.numeric.size();
    for (std::size_t f = 0; f < dims; ++f) {
        const auto get = [f](const LoggedTuple& t) { return t.context.numeric[f]; };
        const auto first = column(trace, 0, half, get);
        const auto second = column(trace, half, trace.size(), get);
        const double p = stats::mann_whitney_u(first, second).p_value_two_sided;
        if (p < options.shift_p_value) {
            add(findings, AuditSeverity::kWarning, "context-shift",
                format("numeric feature %.0f shifts between the trace halves "
                       "(rank-sum p = %.4f): the client population is "
                       "non-stationary",
                       static_cast<double>(f), p),
                p);
        }
    }
}

void check_decision_mix(const Trace& trace, const AuditOptions& options,
                        std::vector<AuditFinding>& findings) {
    const std::size_t half = trace.size() / 2;
    const std::size_t decisions = trace.num_decisions();
    std::vector<double> first(decisions, 0.0), second(decisions, 0.0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        auto& counts = i < half ? first : second;
        counts[static_cast<std::size_t>(trace[i].decision)] += 1.0;
    }
    double tv = 0.0;
    for (std::size_t d = 0; d < decisions; ++d)
        tv += 0.5 * std::fabs(first[d] / static_cast<double>(half) -
                              second[d] / static_cast<double>(trace.size() - half));
    if (tv > options.decision_mix_tv) {
        add(findings, AuditSeverity::kWarning, "logging-policy-drift",
            format("the decision mix moves by %.2f total variation between "
                   "the trace halves: the logging policy changed mid-trace "
                   "(history-dependent? retuned?), so treat the logged "
                   "propensities as per-tuple, not global",
                   tv),
            tv);
    }
}

void check_within_decision_shift(const Trace& trace, const AuditOptions& options,
                                 std::vector<AuditFinding>& findings) {
    // For each decision with enough support in both halves, compare its own
    // rewards across halves. A shift the context doesn't explain is the
    // §4.1 coupling / world-state signature.
    const std::size_t half = trace.size() / 2;
    const std::size_t decisions = trace.num_decisions();
    for (std::size_t d = 0; d < decisions; ++d) {
        std::vector<double> first, second;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (static_cast<std::size_t>(trace[i].decision) != d) continue;
            (i < half ? first : second).push_back(trace[i].reward);
        }
        if (first.size() < 20 || second.size() < 20) continue;
        const double p = stats::mann_whitney_u(first, second).p_value_two_sided;
        if (p < options.shift_p_value) {
            add(findings, AuditSeverity::kWarning, "within-decision-shift",
                format("decision %.0f's own rewards shift between the trace "
                       "halves (rank-sum p = %.4f): system state or "
                       "decision-reward coupling is moving underneath the "
                       "logs",
                       static_cast<double>(d), p),
                p);
        }
    }
}

} // namespace

const char* to_string(AuditSeverity severity) noexcept {
    switch (severity) {
        case AuditSeverity::kInfo: return "info";
        case AuditSeverity::kWarning: return "warning";
        case AuditSeverity::kCritical: return "critical";
    }
    return "unknown";
}

std::vector<AuditFinding> audit_trace(const Trace& trace, const Policy* target,
                                      const AuditOptions& options) {
    if (trace.empty())
        throw std::invalid_argument("audit_trace needs a non-empty trace");

    std::vector<AuditFinding> findings;
    check_structure(trace, findings);
    check_propensities(trace, options, findings);
    // A critical structural defect (invalid or degenerate propensities)
    // makes the statistical machinery itself unsound — the library's other
    // entry points would rightly refuse this trace — so stop here.
    const bool critical = std::any_of(
        findings.begin(), findings.end(), [](const AuditFinding& f) {
            return f.severity == AuditSeverity::kCritical;
        });

    // Statistical checks need valid data and enough of it to say anything.
    if (!critical && trace.size() >= options.min_tuples) {
        if (target != nullptr) check_overlap(trace, *target, options, findings);
        check_drift(trace, findings);
        check_context_shift(trace, options, findings);
        check_decision_mix(trace, options, findings);
        check_within_decision_shift(trace, options, findings);
    }

    std::stable_sort(findings.begin(), findings.end(),
                     [](const AuditFinding& a, const AuditFinding& b) {
                         return static_cast<int>(a.severity) >
                                static_cast<int>(b.severity);
                     });
    return findings;
}

} // namespace dre::core
