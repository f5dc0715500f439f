// Automated pitfall detection for logged traces — §4.1 as a linter.
//
// The paper's central warning is that trace-driven evaluation fails
// *silently*: the logs carry no banner saying "collected by a deterministic
// policy" or "the world shifted halfway through". audit_trace() runs the
// checks a careful analyst would run by hand and returns structured
// findings, one per detected pitfall:
//
//   invalid-propensity      logged propensities outside (0, 1]
//   non-finite-reward       NaN/Inf rewards (poisons every estimator sum)
//   non-finite-context      NaN/Inf numeric context features
//   decision-out-of-range   decision ids outside the trace's decision space
//   deterministic-logging   every propensity is 1 — no off-policy support
//   thin-support            propensities close enough to 0 to blow up IPS
//   low-ess                 effective sample size collapses for the target
//   zero-overlap            most tuples carry zero weight for the target
//   propensity-mismatch     mean importance weight far from 1 (for a
//                           learned target, most likely an in-sample fit)
//   reward-drift            change-points in the reward stream (§4.1 world
//                           state / §4.3 remedy)
//   context-shift           the client population moved between the first
//                           and second half of the trace
//   logging-policy-drift    the decision mix moved between halves (a single
//                           logged propensity can't describe both regimes)
//   within-decision-shift   a decision's own rewards moved between halves
//                           (coupling or state change the context misses)
//
// Findings are advisory: each carries the measured statistic so the caller
// can apply their own thresholds. The dre_eval CLI exposes this as --audit.
//
// The structural codes (invalid-propensity, non-finite-reward,
// non-finite-context, decision-out-of-range) are the trace/validate.h
// reason codes verbatim — the same strings the hardened load and streaming
// paths put in a QuarantineReport, so a quarantined run and an audit of
// the same trace agree on what was wrong.
#ifndef DRE_CORE_AUDIT_H
#define DRE_CORE_AUDIT_H

#include <string>
#include <vector>

#include "core/policy.h"
#include "trace/trace.h"

namespace dre::core {

enum class AuditSeverity { kInfo, kWarning, kCritical };

const char* to_string(AuditSeverity severity) noexcept;

struct AuditFinding {
    AuditSeverity severity = AuditSeverity::kInfo;
    std::string code;    // stable machine-readable id, e.g. "low-ess"
    std::string message; // human-readable explanation with the numbers
    double metric = 0.0; // the statistic that triggered the finding
};

struct AuditOptions {
    double thin_support_propensity = 1e-3; // min propensity before warning
    double min_ess_fraction = 0.05;        // ESS/n below this -> warning
    double max_zero_weight_fraction = 0.75;
    double max_mean_weight_deviation = 0.25; // |E[w] - 1| above -> warning
    double shift_p_value = 0.01;   // Mann-Whitney threshold for half-splits
    double decision_mix_tv = 0.15; // total-variation threshold between halves
    std::size_t min_tuples = 50;   // below this, only structural checks run
};

// Run every applicable check. The target policy is optional: without one,
// the overlap/weight checks are skipped (they are target-specific).
// Findings are ordered most severe first. An empty result means the trace
// passed every check — not that the evaluation is guaranteed sound.
std::vector<AuditFinding> audit_trace(const Trace& trace,
                                      const Policy* target = nullptr,
                                      const AuditOptions& options = {});

} // namespace dre::core

#endif // DRE_CORE_AUDIT_H
