// Per-subpopulation ("per-segment") off-policy analysis.
//
// Operators rarely stop at a global average: a new policy that wins overall
// can still regress a region, an ISP, or a device class — and §2.2.1's
// pitfalls (sparse subpopulations like "clients in city X using server Y")
// bite hardest per-segment. This module slices a trace by an arbitrary
// grouping function and runs the DR estimator per group, flagging groups
// whose effective sample size is too small to trust.
#ifndef DRE_CORE_SUBGROUP_H
#define DRE_CORE_SUBGROUP_H

#include <functional>
#include <map>
#include <string>

#include "core/diagnostics.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "trace/trace.h"

namespace dre::core {

// Maps a tuple to its group key (e.g., its ASN, city, or device class).
using GroupFn = std::function<std::int64_t(const LoggedTuple&)>;

struct SubgroupResult {
    std::int64_t group = 0;
    std::size_t tuples = 0;
    EstimateResult dr;
    OverlapDiagnostics overlap;
    // True when the group's effective sample size clears the configured
    // floor; otherwise the estimate is reported but flagged untrustworthy
    // (the Fig. 5 sparsity problem, per segment).
    bool reliable = false;
};

struct SubgroupOptions {
    double min_effective_sample_size = 30.0;
};

// DR per group. The reward model is shared (fit on the full trace by the
// caller — per-group refitting would starve small groups even further).
// Groups appear in ascending key order.
std::vector<SubgroupResult> subgroup_analysis(const Trace& trace,
                                              const Policy& new_policy,
                                              const RewardModel& model,
                                              const GroupFn& group_fn,
                                              const SubgroupOptions& options = {});

// Convenience grouping: by the i-th categorical feature.
GroupFn group_by_categorical(std::size_t index);

} // namespace dre::core

#endif // DRE_CORE_SUBGROUP_H
