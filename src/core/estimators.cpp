#include "core/estimators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.h"
#include "obs/obs.h"
#include "simd/simd.h"

namespace dre::core {
namespace {

void check_inputs(const Trace& trace, const Policy& new_policy,
                  const RewardModel* model) {
    validate_trace(trace, new_policy.num_decisions());
    if (trace.empty()) throw std::invalid_argument("estimator: empty trace");
    if (model && model->num_decisions() != new_policy.num_decisions())
        throw std::invalid_argument("estimator: model/policy decision-space mismatch");
}

void check_matrix(const Trace& trace, const Policy& new_policy,
                  const PredictionMatrix& qhat) {
    validate_trace(trace, new_policy.num_decisions());
    if (trace.empty()) throw std::invalid_argument("estimator: empty trace");
    if (qhat.num_decisions() != new_policy.num_decisions())
        throw std::invalid_argument("estimator: matrix/policy decision-space mismatch");
    if (qhat.num_tuples() != trace.size())
        throw std::invalid_argument("estimator: matrix built from a different trace");
}

// Reusable per-thread probability buffer for the estimator loops. Each
// parallel task sees its own copy (thread_local), so the hot loops never
// allocate a distribution per tuple. value_under_policy fills it and
// leaves trace[k]'s distribution behind, letting callers read
// probs[t.decision] instead of paying a second policy evaluation.
std::vector<double>& probs_scratch() {
    thread_local std::vector<double> scratch;
    return scratch;
}

// DR and the fused chunk kernel read q̂ through a generic accessor: the
// RewardModel directly, or a PredictionMatrix row. Both accessors execute
// dre::simd's canonical fixed-8-lane weighted sum (simd.h): the matrix path
// through the dispatched kernel over the contiguous decision-major row, the
// model path as the equivalent scalar lane loop that only queries the model
// at nonzero probabilities (a zero-probability decision contributes exactly
// +0.0 either way — the two spellings are bit-identical, and so are all
// dispatch levels).
template <typename Q>
double value_under_policy(const Policy& policy, const ClientContext& context,
                          std::size_t k, const Q& q,
                          std::vector<double>& probs) {
    policy.action_probabilities_into(context, probs);
    const std::size_t n = probs.size();
    std::uint64_t skips = 0;
    double value;
    if (const double* row = q.row(k)) {
        value = simd::ops().weighted_sum_skip_zero(probs.data(), row, n, &skips);
    } else {
        double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (std::size_t d = 0; d < n; ++d) {
            const double p = probs[d];
            if (p == 0.0) {
                ++skips;
                continue;
            }
            acc[d & 7] += p * q(k, context, d);
        }
        value = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    }
    // One flush per tuple (not per decision): a per-item sum, so the total
    // is identical for any thread count or chunking.
    if (skips != 0) DRE_COUNTER_ADD("estimators.zero_prob_skips", skips);
    return value;
}

// Accessor over the live model (the pre-matrix code path, verbatim).
struct ModelQ {
    const RewardModel* model;
    double operator()(std::size_t, const ClientContext& context,
                      std::size_t d) const {
        return model->predict(context, static_cast<Decision>(d));
    }
    // No contiguous row: value_under_policy takes the scalar lane loop.
    const double* row(std::size_t) const { return nullptr; }
};

// Accessor over precomputed q̂ rows, row-major with `stride` decisions per
// row: a whole matrix, or the rows the fused chunk kernel is handed (a
// chunk's own block or a slice of a cached matrix). The context is ignored
// because each row was computed from exactly that tuple's context.
struct MatrixQ {
    const double* rows;
    std::size_t stride;
    explicit MatrixQ(const PredictionMatrix* qhat)
        : rows(qhat->row(0)), stride(qhat->num_decisions()) {}
    MatrixQ(const double* first_row, std::size_t decisions)
        : rows(first_row), stride(decisions) {}
    double operator()(std::size_t k, const ClientContext&, std::size_t d) const {
        return rows[k * stride + d];
    }
    const double* row(std::size_t k) const { return rows + k * stride; }
};

// Fill per_tuple[k] = fn(k, trace[k]) for every tuple, in parallel. Each
// task writes only its own slots and fn is a pure function of (k, tuple),
// so the result is identical for any thread count.
template <typename Fn>
std::vector<double> per_tuple_map(const Trace& trace, const Fn& fn) {
    std::vector<double> per_tuple(trace.size());
    par::parallel_for_chunked(trace.size(),
                              [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t k = begin; k < end; ++k)
                                      per_tuple[k] = fn(k, trace[k]);
                              });
    return per_tuple;
}

EstimateResult average_result(std::vector<double> per_tuple, std::string name) {
    EstimateResult result;
    // Ordered chunk-wise mean: deterministic for any thread count, and
    // bit-identical to stats::mean below par::kReduceChunk elements.
    result.value = par::chunked_mean(per_tuple);
    result.per_tuple = std::move(per_tuple);
    result.estimator = std::move(name);
    return result;
}

template <typename Q>
EstimateResult doubly_robust_impl(const Trace& trace, const Policy& new_policy,
                                  const Q& q) {
    return average_result(
        per_tuple_map(trace,
                      [&](std::size_t k, const LoggedTuple& t) {
                          // probs[t.decision] == probability(t.context,
                          // t.decision) by the Policy contract; reusing the
                          // row value_under_policy just filled saves a
                          // second policy evaluation per tuple.
                          std::vector<double>& probs = probs_scratch();
                          const double dm_part = value_under_policy(
                              new_policy, t.context, k, q, probs);
                          const double weight =
                              probs[static_cast<std::size_t>(t.decision)] /
                              t.propensity;
                          return dm_part +
                                 weight * (t.reward -
                                           q(k, t.context,
                                             static_cast<std::size_t>(t.decision)));
                      }),
        "DR");
}

} // namespace

EstimateResult direct_method(const Trace& trace, const Policy& new_policy,
                             const RewardModel& model) {
    check_inputs(trace, new_policy, &model);
    const ModelQ q{&model};
    return average_result(
        per_tuple_map(trace,
                      [&](std::size_t k, const LoggedTuple& t) {
                          return value_under_policy(new_policy, t.context, k, q,
                                                    probs_scratch());
                      }),
        "DM");
}

std::vector<double> importance_weights(const Trace& trace, const Policy& new_policy) {
    check_inputs(trace, new_policy, nullptr);
    return per_tuple_map(trace, [&](std::size_t, const LoggedTuple& t) {
        return new_policy.probability(t.context, t.decision) / t.propensity;
    });
}

EstimateResult inverse_propensity(const Trace& trace, const Policy& new_policy) {
    check_inputs(trace, new_policy, nullptr);
    return average_result(
        per_tuple_map(trace,
                      [&](std::size_t, const LoggedTuple& t) {
                          return new_policy.probability(t.context, t.decision) /
                                 t.propensity * t.reward;
                      }),
        "IPS");
}

EstimateResult clipped_ips(const Trace& trace, const Policy& new_policy,
                           const EstimatorOptions& options) {
    if (!(options.weight_clip > 0.0))
        throw std::invalid_argument("clipped_ips: weight_clip must be > 0");
    check_inputs(trace, new_policy, nullptr);
    return average_result(
        per_tuple_map(trace,
                      [&](std::size_t, const LoggedTuple& t) {
                          const double weight =
                              new_policy.probability(t.context, t.decision) /
                              t.propensity;
                          if (weight > options.weight_clip)
                              DRE_COUNTER_INC("estimators.weight_clipped");
                          return std::min(weight, options.weight_clip) * t.reward;
                      }),
        "clipped-IPS");
}

EstimateResult self_normalized_ips(const Trace& trace, const Policy& new_policy) {
    const std::vector<double> weights = importance_weights(trace, new_policy);
    std::vector<double> weighted_rewards(trace.size());
    par::parallel_for_chunked(trace.size(),
                              [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t k = begin; k < end; ++k)
                                      weighted_rewards[k] =
                                          weights[k] * trace[k].reward;
                              });
    const double weighted_reward = par::chunked_sum(weighted_rewards);
    const double total_weight = par::chunked_sum(weights);
    EstimateResult result;
    result.estimator = "SNIPS";
    if (total_weight <= 0.0) {
        // New policy has no overlap at all with the logged decisions.
        result.value = 0.0;
        result.per_tuple.assign(trace.size(), 0.0);
        return result;
    }
    result.value = weighted_reward / total_weight;
    // Per-tuple contributions relative to the global normalization, scaled
    // so that mean(per_tuple) == value.
    result.per_tuple.resize(trace.size());
    const double scale = static_cast<double>(trace.size()) / total_weight;
    par::parallel_for_chunked(trace.size(),
                              [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t k = begin; k < end; ++k)
                                      result.per_tuple[k] =
                                          scale * weighted_rewards[k];
                              });
    return result;
}

EstimateResult doubly_robust(const Trace& trace, const Policy& new_policy,
                             const RewardModel& model) {
    check_inputs(trace, new_policy, &model);
    return doubly_robust_impl(trace, new_policy, ModelQ{&model});
}

EstimateResult doubly_robust(const Trace& trace, const Policy& new_policy,
                             const PredictionMatrix& qhat) {
    check_matrix(trace, new_policy, qhat);
    return doubly_robust_impl(trace, new_policy, MatrixQ{&qhat});
}

EstimateResult switch_doubly_robust(const Trace& trace, const Policy& new_policy,
                                    const RewardModel& model,
                                    const EstimatorOptions& options) {
    if (!(options.switch_threshold > 0.0))
        throw std::invalid_argument("switch_doubly_robust: threshold must be > 0");
    check_inputs(trace, new_policy, &model);
    const ModelQ q{&model};
    return average_result(
        per_tuple_map(trace,
                      [&](std::size_t k, const LoggedTuple& t) {
                          std::vector<double>& probs = probs_scratch();
                          const double dm_part = value_under_policy(
                              new_policy, t.context, k, q, probs);
                          const double weight =
                              probs[static_cast<std::size_t>(t.decision)] /
                              t.propensity;
                          double contribution = dm_part;
                          if (weight <= options.switch_threshold) {
                              contribution +=
                                  weight *
                                  (t.reward -
                                   q(k, t.context,
                                     static_cast<std::size_t>(t.decision)));
                          } else {
                              DRE_COUNTER_INC("estimators.switch_model_fallbacks");
                          }
                          return contribution;
                      }),
        "SWITCH-DR");
}

ReplayEstimate matching_replay(const Trace& trace, const Policy& new_policy) {
    check_inputs(trace, new_policy, nullptr);
    // Matched flags computed in parallel (slot-disjoint); the small
    // reductions over them stay serial and deterministic.
    std::vector<double> matched(trace.size());
    par::parallel_for_chunked(
        trace.size(), [&](std::size_t begin, std::size_t end) {
            std::vector<double>& probs = probs_scratch();
            for (std::size_t k = begin; k < end; ++k) {
                new_policy.action_probabilities_into(trace[k].context, probs);
                const auto argmax = static_cast<Decision>(
                    std::max_element(probs.begin(), probs.end()) - probs.begin());
                matched[k] = argmax == trace[k].decision ? 1.0 : 0.0;
            }
        });
    double matched_sum = 0.0, total_sum = 0.0;
    std::size_t matches = 0;
    for (std::size_t k = 0; k < trace.size(); ++k) {
        total_sum += trace[k].reward;
        if (matched[k] != 0.0) {
            matched_sum += trace[k].reward;
            ++matches;
        }
    }
    ReplayEstimate estimate;
    estimate.matches = matches;
    estimate.match_rate =
        static_cast<double>(matches) / static_cast<double>(trace.size());
    estimate.value = matches > 0
                         ? matched_sum / static_cast<double>(matches)
                         : total_sum / static_cast<double>(trace.size());
    return estimate;
}

EstimateResult self_normalized_doubly_robust(const Trace& trace,
                                             const Policy& new_policy,
                                             const RewardModel& model) {
    check_inputs(trace, new_policy, &model);
    const ModelQ q{&model};
    const std::size_t n = trace.size();
    std::vector<double> dm_parts(n), corrections(n), weights(n);
    par::parallel_for_chunked(n, [&](std::size_t begin, std::size_t end) {
        std::vector<double>& probs = probs_scratch();
        for (std::size_t k = begin; k < end; ++k) {
            const LoggedTuple& t = trace[k];
            dm_parts[k] = value_under_policy(new_policy, t.context, k, q, probs);
            weights[k] =
                probs[static_cast<std::size_t>(t.decision)] / t.propensity;
            corrections[k] =
                weights[k] *
                (t.reward -
                 q(k, t.context, static_cast<std::size_t>(t.decision)));
        }
    });
    const double total_weight = par::chunked_sum(weights);
    EstimateResult result;
    result.estimator = "SN-DR";
    result.per_tuple.resize(n);
    if (total_weight <= 0.0) {
        // No overlap: fall back to the pure model estimate.
        result.value = par::chunked_mean(dm_parts);
        result.per_tuple = std::move(dm_parts);
        return result;
    }
    const double scale = static_cast<double>(n) / total_weight;
    par::parallel_for_chunked(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
            result.per_tuple[k] = dm_parts[k] + scale * corrections[k];
    });
    result.value = par::chunked_sum(result.per_tuple) / static_cast<double>(n);
    return result;
}

void fill_estimator_chunk(std::span<const LoggedTuple> chunk,
                          const Policy& new_policy, const double* qhat_rows,
                          const EstimatorOptions& options, EstimatorChunk& out) {
    if (!(options.switch_threshold > 0.0))
        throw std::invalid_argument("fill_estimator_chunk: threshold must be > 0");
    const std::size_t decisions = new_policy.num_decisions();
    validate_trace(chunk, decisions);
    const std::size_t n = chunk.size();
    out.dm.resize(n);
    out.ips.resize(n);
    out.dr.resize(n);
    out.switch_dr.resize(n);
    out.weights.resize(n);
    const MatrixQ q(qhat_rows, decisions);
    // Serial by design: the engine already runs one chunk per pool task.
    // Each expression below is copied verbatim from the per-estimator
    // loops above, so per-tuple values match bit-for-bit.
    std::vector<double>& probs = probs_scratch();
    for (std::size_t k = 0; k < n; ++k) {
        const LoggedTuple& t = chunk[k];
        const double dm_part =
            value_under_policy(new_policy, t.context, k, q, probs);
        const double weight =
            probs[static_cast<std::size_t>(t.decision)] / t.propensity;
        const double qd = q(k, t.context, static_cast<std::size_t>(t.decision));
        out.dm[k] = dm_part;
        out.weights[k] = weight;
        out.ips[k] = weight * t.reward;
        out.dr[k] = dm_part + weight * (t.reward - qd);
        if (weight <= options.switch_threshold) {
            out.switch_dr[k] = dm_part + weight * (t.reward - qd);
        } else {
            DRE_COUNTER_INC("estimators.switch_model_fallbacks");
            out.switch_dr[k] = dm_part;
        }
    }
}

void fill_estimator_chunk(const Trace& chunk, const Policy& new_policy,
                          const PredictionMatrix& qhat,
                          const EstimatorOptions& options, EstimatorChunk& out) {
    check_matrix(chunk, new_policy, qhat);
    fill_estimator_chunk(chunk.tuples(), new_policy, qhat.row(0), options, out);
}

} // namespace dre::core
