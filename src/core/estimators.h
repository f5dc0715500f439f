// Off-policy value estimators (paper §3).
//
// Given a trace T = {(c_k, d_k, r_k)} collected under mu_old, a new policy
// mu_new, and (for DM/DR) a reward model r^, estimate
//     V(mu_new) = (1/n) sum_k sum_d mu_new(d|c_k) E[r | c_k, d].
//
//  * DM   : V^ = (1/n) sum_k sum_d mu_new(d|c_k) r^(c_k, d)
//  * IPS  : V^ = (1/n) sum_k  w_k r_k,   w_k = mu_new(d_k|c_k)/mu_old(d_k|c_k)
//  * DR   : V^ = (1/n) sum_k [ sum_d mu_new(d|c_k) r^(c_k,d)
//                              + w_k (r_k - r^(c_k,d_k)) ]        (Eq. 2)
//
// plus standard variance-control variants (self-normalized IPS, weight
// clipping, SWITCH-DR) that operationalize §4.1's coverage concerns.
#ifndef DRE_CORE_ESTIMATORS_H
#define DRE_CORE_ESTIMATORS_H

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "trace/trace.h"

namespace dre::core {

// Result of one estimator run. `per_tuple` holds each tuple's contribution
// (already averaged semantics: value == mean(per_tuple) except for the
// self-normalized estimator, where the normalization is global).
struct EstimateResult {
    double value = 0.0;
    std::vector<double> per_tuple;
    std::string estimator;

    // Sample variance of the per-tuple contributions divided by n — a plug-in
    // variance proxy for the estimate (exact for the unnormalized averages).
    double variance_of_mean() const;
};

struct EstimatorOptions {
    // Weight cap for clipped IPS / the clipped part of DR; +inf disables.
    double weight_clip = std::numeric_limits<double>::infinity();
    // SWITCH threshold tau: tuples with w_k > tau fall back to the model.
    double switch_threshold = 10.0;
};

// Direct Method.
EstimateResult direct_method(const Trace& trace, const Policy& new_policy,
                             const RewardModel& model);

// Inverse Propensity Scoring, using the propensities logged in the trace.
EstimateResult inverse_propensity(const Trace& trace, const Policy& new_policy);

// IPS with weights clipped at options.weight_clip.
EstimateResult clipped_ips(const Trace& trace, const Policy& new_policy,
                           const EstimatorOptions& options);

// Self-normalized IPS: sum(w r)/sum(w). Biased but much lower variance when
// weights are skewed.
EstimateResult self_normalized_ips(const Trace& trace, const Policy& new_policy);

// Doubly Robust (paper Eq. 1/2).
EstimateResult doubly_robust(const Trace& trace, const Policy& new_policy,
                             const RewardModel& model);

// DR with clipped correction weights.
EstimateResult clipped_doubly_robust(const Trace& trace, const Policy& new_policy,
                                     const RewardModel& model,
                                     const EstimatorOptions& options);

// SWITCH-DR: use the DR correction only where w_k <= tau, otherwise trust
// the model alone. Trades a little bias for bounded variance.
EstimateResult switch_doubly_robust(const Trace& trace, const Policy& new_policy,
                                    const RewardModel& model,
                                    const EstimatorOptions& options);

// Self-normalized DR: the correction term is normalized by sum(w) instead
// of n, combining DR's model anchor with SNIPS's robustness to mis-scaled
// propensities:
//   V^ = (1/n) sum_k DM_k  +  sum_k w_k (r_k - r^(c_k,d_k)) / sum_k w_k.
EstimateResult self_normalized_doubly_robust(const Trace& trace,
                                             const Policy& new_policy,
                                             const RewardModel& model);

// ---------------------------------------------------------------------------
// PredictionMatrix overloads: identical estimators reading q̂ from a
// precomputed matrix (one model call per (tuple, decision), shared across
// estimators and bootstrap replicates) instead of querying the model per
// use. Same summation order and arithmetic as the model-based overloads —
// the results are bit-identical. The matrix must have been built from the
// same trace (num_tuples checked) and model (num_decisions checked).
// ---------------------------------------------------------------------------

EstimateResult direct_method(const Trace& trace, const Policy& new_policy,
                             const PredictionMatrix& qhat);

EstimateResult doubly_robust(const Trace& trace, const Policy& new_policy,
                             const PredictionMatrix& qhat);

EstimateResult clipped_doubly_robust(const Trace& trace, const Policy& new_policy,
                                     const PredictionMatrix& qhat,
                                     const EstimatorOptions& options);

EstimateResult switch_doubly_robust(const Trace& trace, const Policy& new_policy,
                                    const PredictionMatrix& qhat,
                                    const EstimatorOptions& options);

EstimateResult self_normalized_doubly_robust(const Trace& trace,
                                             const Policy& new_policy,
                                             const PredictionMatrix& qhat);

// Matching/replay estimator (Fig. 5's "unbiased but low coverage"
// baseline, the skeleton of CFA's evaluator and of Li et al.'s replay):
// the mean logged reward over tuples whose logged decision equals the new
// policy's argmax decision for that context. Unbiased when the logging
// policy is uniform; collapses when matches are scarce.
struct ReplayEstimate {
    double value = 0.0;
    std::size_t matches = 0;
    double match_rate = 0.0;
};

// Falls back to the overall trace mean when nothing matches (matches == 0
// signals that the value is a fallback, not an estimate).
ReplayEstimate matching_replay(const Trace& trace, const Policy& new_policy);

// The importance weights w_k themselves (diagnostics & tests).
std::vector<double> importance_weights(const Trace& trace, const Policy& new_policy);

// ---------------------------------------------------------------------------
// The fused chunk kernel behind the evaluation engine (core/engine.h, which
// both Evaluator and evaluate_streaming drive): per-tuple contributions of
// the whole Evaluator estimator suite for one chunk of tuples, in a single
// pass that asks the policy once per tuple. The arithmetic is shared with
// the whole-trace overloads above — same probability / propensity / q̂
// expressions in the same order — so chunk-ordered reductions over these
// arrays reproduce the whole-trace estimates bit-for-bit.
// ---------------------------------------------------------------------------

struct EstimatorChunk {
    std::vector<double> dm;        // DM contribution per tuple
    std::vector<double> ips;       // w_k r_k (doubles as SNIPS's numerator)
    std::vector<double> dr;        // DR contribution
    std::vector<double> switch_dr; // SWITCH-DR contribution
    std::vector<double> weights;   // importance weight w_k
};

// `qhat_rows` holds the chunk's q̂ rows, row-major with
// new_policy.num_decisions() columns (row k ↔ chunk[k]): a chunk-local
// PredictionMatrix block or a row slice of a cached one. Throws
// std::invalid_argument for an invalid tuple (validate_trace), a decision
// outside the policy's space, or a SWITCH threshold <= 0.
void fill_estimator_chunk(std::span<const LoggedTuple> chunk,
                          const Policy& new_policy, const double* qhat_rows,
                          const EstimatorOptions& options, EstimatorChunk& out);

// The same kernel over a chunk trace and its own prediction matrix.
void fill_estimator_chunk(const Trace& chunk, const Policy& new_policy,
                          const PredictionMatrix& qhat,
                          const EstimatorOptions& options, EstimatorChunk& out);

} // namespace dre::core

#endif // DRE_CORE_ESTIMATORS_H
