// System-state ("state of the world") handling — paper §4.1 and §4.3.
//
// DR implicitly assumes the new policy is evaluated under the same system
// states (load, time-of-day, background traffic) as in the trace. When the
// target regime differs, we support two of the paper's proposed remedies:
//
//  1. Transition correction: "if we know that peak-hour performance is on
//     average 20% worse ... create a new trace by degrading the performance
//     in the trace" and run DR on the corrected trace.
//  2. State matching: "the DR estimator can use the empirical data in the
//     trace when the network states match" — restrict the DR average to
//     tuples whose state label equals the target state.
//
// Plus automatic transition-function identification from a few paired
// samples (the paper's transfer-learning conjecture, realized here as a
// per-state affine map fit by least squares).
#ifndef DRE_CORE_WORLD_STATE_H
#define DRE_CORE_WORLD_STATE_H

#include <functional>
#include <vector>

#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "trace/trace.h"

namespace dre::core {

// Maps a reward observed in `from_state` to the equivalent reward under
// `to_state` (e.g., r -> 0.8 * r for morning -> peak).
using StateTransitionFn =
    std::function<double(double reward, std::int32_t from_state, std::int32_t to_state)>;

// Copy of `trace` with every reward rerouted through `transition` toward
// `target_state` and all state labels set to `target_state`.
Trace apply_state_transition(const Trace& trace, const StateTransitionFn& transition,
                             std::int32_t target_state);

// DR on the transition-corrected trace (remedy 1). The reward model is
// refit by the caller on the corrected trace for consistency.
EstimateResult doubly_robust_state_corrected(const Trace& trace,
                                             const Policy& new_policy,
                                             const RewardModel& corrected_model,
                                             const StateTransitionFn& transition,
                                             std::int32_t target_state);

// DR restricted to tuples logged in `target_state` (remedy 2). Throws if no
// tuple matches.
EstimateResult doubly_robust_state_matched(const Trace& trace,
                                           const Policy& new_policy,
                                           const RewardModel& model,
                                           std::int32_t target_state);

// Affine per-state-pair transition r_to ≈ a * r_from + b, identified from
// samples of the same (context, decision) population observed in both
// states. This is the "collect a few samples from various network states,
// then identify the transition function" idea in §4.3.
class AffineStateTransition {
public:
    // Fit from paired observations (reward in from_state, reward in to_state).
    void fit(std::span<const double> from_rewards, std::span<const double> to_rewards);

    double operator()(double reward, std::int32_t, std::int32_t) const;

    double slope() const noexcept { return slope_; }
    double offset() const noexcept { return offset_; }

private:
    double slope_ = 1.0;
    double offset_ = 0.0;
    bool fitted_ = false;
};

} // namespace dre::core

#endif // DRE_CORE_WORLD_STATE_H
