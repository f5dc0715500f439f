// Reward-drift detection over a logged trace (§4.3).
//
// Before trusting a trace-driven estimate, check whether the world changed
// *while the trace was being collected*: a reward-level change-point means
// the tuples straddle different system states (time-of-day load, a deploy,
// an incident) and should not be pooled naively. This wraps the PELT
// change-point detector around the trace's reward sequence and can relabel
// tuples with their detected segment, feeding straight into the
// state-matched DR machinery in core/world_state.h.
#ifndef DRE_CORE_DRIFT_H
#define DRE_CORE_DRIFT_H

#include <vector>

#include "stats/changepoint.h"
#include "trace/trace.h"

namespace dre::core {

struct DriftReport {
    // Tuple indices where a new regime begins (ascending; empty = no drift).
    std::vector<std::size_t> changepoints;
    // Mean reward per detected segment.
    std::vector<double> segment_means;
    bool drift_detected() const noexcept { return !changepoints.empty(); }
    std::size_t num_segments() const noexcept { return segment_means.size(); }
};

struct DriftOptions {
    // PELT penalty; <= 0 selects the BIC-style default.
    double penalty = -1.0;
    std::size_t min_segment_length = 25;
};

// Detect mean-shift change-points in the trace's reward sequence. The trace
// order must be collection order (it is, for traces built by this library).
DriftReport detect_reward_drift(const Trace& trace, const DriftOptions& options = {});

} // namespace dre::core

#endif // DRE_CORE_DRIFT_H
