// The evaluation engine (internal to dre::core): the one implementation
// of the fused estimator sweep, its in-order merge and its finalize, driven
// by Evaluator (q̂ rows sliced from its cached PredictionMatrix) and by
// evaluate_streaming (q̂ filled per chunk).
//
// A caller cuts its tuples into par::kReduceChunk chunks by global tuple
// index and passes them, a wave at a time, to fold_in_order: the engine
// folds the wave's chunks concurrently (a fold is a pure function of the
// chunk id, its tuples and their q̂ rows) and merges them strictly in chunk
// order; finalize() then runs once. The reductions are those of the
// whole-trace estimators — par::MeanState merges, left-fold chunk sums,
// overlap_diagnostics' serial folds, the chunk-keyed
// stats::ChunkedMeanBootstrap — so a result depends only on the tuples and
// their q̂ rows, never on the caller, thread count or wave size.
#ifndef DRE_CORE_ENGINE_H
#define DRE_CORE_ENGINE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/estimators.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"

namespace dre::core {

// One chunk's partials.
struct ChunkFold {
    par::MeanState dm, ips, dr, switch_dr;
    double weight_sum = 0.0;
    double weighted_reward_sum = 0.0;  // Σ w_k r_k (SNIPS numerator)
    std::vector<double> weights;       // for the in-order overlap fold
    std::vector<double> boot_partials; // per-replicate DR resample sums
};

// Everything a run folds across chunks, bar the bootstrap replicate sums.
struct EngineTotals {
    par::MeanState dm, ips, dr, switch_dr;
    double weight_total = 0.0, weighted_reward_total = 0.0;
    double o_sum = 0.0, o_sum_sq = 0.0, o_max = 0.0;
    std::uint64_t o_zeros = 0;
    stats::Accumulator weight_acc;
};

class EvaluationEngine {
public:
    // `qhat_decisions` (the width of the q̂ rows) must equal the policy's
    // decision count. `rng` is split once, for the bootstrap, iff
    // ci_replicates > 0: the protocol of stats::chunked_bootstrap_mean_ci.
    EvaluationEngine(const Policy& policy, std::size_t qhat_decisions,
                     const EstimatorOptions& options, stats::Rng& rng,
                     int ci_replicates, double ci_level)
        : policy_(policy), options_(options) {
        if (qhat_decisions != policy.num_decisions())
            throw std::invalid_argument(
                "evaluation: model/policy decision-space mismatch");
        if (ci_replicates > 0)
            bootstrap.emplace(rng.split(), ci_replicates, ci_level);
    }

    // `qhat_rows` holds the chunk's q̂ rows, row-major (row k ↔ tuples[k]).
    // A non-null `dr_out` receives the per-tuple DR contributions.
    ChunkFold fold(std::uint64_t chunk, std::span<const LoggedTuple> tuples,
                   const double* qhat_rows, double* dr_out = nullptr) const {
        EstimatorChunk ec;
        fill_estimator_chunk(tuples, policy_, qhat_rows, options_, ec);
        ChunkFold f;
        for (double x : ec.dm) f.dm.add(x);
        for (double x : ec.ips) f.ips.add(x);
        for (double x : ec.dr) f.dr.add(x);
        for (double x : ec.switch_dr) f.switch_dr.add(x);
        for (double w : ec.weights) f.weight_sum += w;
        for (double x : ec.ips) f.weighted_reward_sum += x;
        if (bootstrap) f.boot_partials = bootstrap->chunk_partials(chunk, ec.dr);
        if (dr_out != nullptr) std::copy(ec.dr.begin(), ec.dr.end(), dr_out);
        f.weights = std::move(ec.weights);
        return f;
    }

    // Folds chunks first, ..., first + count - 1 concurrently
    // (`fold_chunk(c)` returns chunk c's fold), then merges them strictly in
    // chunk order: the only sequencing point, and the reason results cannot
    // depend on the thread count or on chunk completion order. Successive
    // calls MUST cover the chunks in order (0, 1, 2, ...).
    template <typename FoldChunk>
    void fold_in_order(std::uint64_t first, std::size_t count,
                       const FoldChunk& fold_chunk) {
        std::vector<ChunkFold> folds(count);
        par::parallel_for(count, [&](std::size_t i) {
            folds[i] = fold_chunk(first + i);
        });
        for (const ChunkFold& f : folds) merge(f);
    }

    // The estimates over every merged tuple (at least one); per-tuple
    // vectors stay empty. Denominators are the merged tuple count, so a
    // tolerant streaming run is exact over its surviving sub-trace.
    PolicyEvaluation finalize() const {
        const EngineTotals& t = totals;
        PolicyEvaluation out;
        out.dm.value = t.dm.mean;
        out.dm.estimator = "DM";
        out.ips.value = t.ips.mean;
        out.ips.estimator = "IPS";
        out.snips.value = t.weight_total <= 0.0
                              ? 0.0
                              : t.weighted_reward_total / t.weight_total;
        out.snips.estimator = "SNIPS";
        out.dr.value = t.dr.mean;
        out.dr.estimator = "DR";
        out.switch_dr.value = t.switch_dr.mean;
        out.switch_dr.estimator = "SWITCH-DR";

        OverlapDiagnostics& diag = out.overlap;
        const auto dn = static_cast<double>(t.dm.n);
        diag.n = t.dm.n;
        diag.max_weight = t.o_max;
        diag.mean_weight = t.o_sum / dn;
        diag.effective_sample_size =
            t.o_sum_sq > 0.0 ? t.o_sum * t.o_sum / t.o_sum_sq : 0.0;
        diag.effective_sample_fraction = diag.effective_sample_size / dn;
        const double var = t.weight_acc.variance();
        diag.weight_cv =
            diag.mean_weight > 0.0 ? std::sqrt(var) / diag.mean_weight : 0.0;
        diag.zero_weight_fraction = static_cast<double>(t.o_zeros) / dn;

        if (bootstrap) out.dr_ci = bootstrap->finalize(t.dm.n, out.dr.value);
        return out;
    }

    // Public so the streaming checkpoint can save and restore them.
    EngineTotals totals;
    std::optional<stats::ChunkedMeanBootstrap> bootstrap;

private:
    void merge(const ChunkFold& f) {
        totals.dm.merge(f.dm);
        totals.ips.merge(f.ips);
        totals.dr.merge(f.dr);
        totals.switch_dr.merge(f.switch_dr);
        totals.weight_total += f.weight_sum;
        totals.weighted_reward_total += f.weighted_reward_sum;
        for (double w : f.weights) {
            totals.o_sum += w;
            totals.o_sum_sq += w * w;
            totals.o_max = std::max(totals.o_max, w);
            if (w == 0.0) ++totals.o_zeros;
            totals.weight_acc.add(w);
        }
        if (bootstrap && !f.boot_partials.empty())
            bootstrap->merge(f.boot_partials);
    }

    const Policy& policy_;
    EstimatorOptions options_;
};

} // namespace dre::core

#endif // DRE_CORE_ENGINE_H
