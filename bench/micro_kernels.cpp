// Kernel-level before/after benchmark for the estimation hot path.
//
// Times each rebuilt kernel against the reference implementation it
// replaced, checks the two produce identical results, and writes
// BENCH_kernels.json:
//
//   * knn       — KD-tree vs brute-force scan, KnnRegressor::predict_batch
//   * cbn       — variable elimination (cold and memo-cached) vs full-joint
//                 enumeration, BayesianNetwork::posterior
//   * qhat      — shared PredictionMatrix vs per-call model queries across
//                 the model-based estimator suite
//   * bootstrap — stats::bootstrap_ci serial vs configured thread count
//   * chunked_bootstrap — stats::chunked_bootstrap_mean_ci on the scalar
//                 resampler vs the dispatched one (simd resample_sum8)
//
// Flags:
//   --small              tiny sizes (CI smoke mode; seconds, not minutes)
//   --fingerprint FILE   also write a timings-free file of the numeric
//                        results (%.17g) so CI can byte-diff two runs, e.g.
//                        DRE_THREADS=1 vs DRE_THREADS=8
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "simd/simd.h"
#include "stats/bootstrap.h"
#include "stats/knn.h"
#include "stats/rng.h"
#include "wise/bayes_net.h"

using namespace dre;

namespace {

// Min-of-N wall-clock milliseconds: the least noisy estimator of the true
// cost of a deterministic kernel.
template <typename Fn>
double time_ms(const Fn& fn, int reps = 5) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep == 0 || ms < best) best = ms;
    }
    return best;
}

// Min-of-N for a baseline/optimized pair with the reps interleaved
// (A,B,A,B,...), so slow machine drift lands on both sides equally instead
// of biasing whichever block ran second.
template <typename FnA, typename FnB>
std::pair<double, double> time_pair_ms(const FnA& fa, const FnB& fb,
                                       int reps = 5) {
    double best_a = 0.0, best_b = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double a = time_ms(fa, 1);
        const double b = time_ms(fb, 1);
        if (rep == 0 || a < best_a) best_a = a;
        if (rep == 0 || b < best_b) best_b = b;
    }
    return {best_a, best_b};
}

struct KernelRow {
    double baseline_ms = 0.0;
    double optimized_ms = 0.0;
    bool identical = false;

    double speedup() const { return baseline_ms / optimized_ms; }
};

void print_row(const char* label, const char* base_name, const char* opt_name,
               const KernelRow& row) {
    std::printf("%-10s %-14s %9.2f ms   %-14s %9.2f ms   speedup %6.2fx   %s\n",
                label, base_name, row.baseline_ms, opt_name, row.optimized_ms,
                row.speedup(),
                row.identical ? "identical" : "OUTPUTS DIFFER (BUG)");
}

} // namespace

int main(int argc, char** argv) {
    bool small = false;
    const char* fingerprint_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0) small = true;
        else if (std::strcmp(argv[i], "--fingerprint") == 0 && i + 1 < argc)
            fingerprint_path = argv[++i];
    }

    bench::print_header("micro_kernels — hot-kernel before/after");
    const std::size_t threads = par::thread_count();
    std::printf("configured threads: %zu   mode: %s\n\n", threads,
                small ? "small (smoke)" : "full");

    // ---- k-NN: brute-force scan vs KD-tree -------------------------------
    const std::size_t knn_n = small ? 2000 : 50000;
    const std::size_t knn_queries = small ? 200 : 2000;
    constexpr std::size_t kKnnDims = 8;
    constexpr std::size_t kKnnK = 10;
    stats::KnnRegressor knn(kKnnK);
    std::vector<std::vector<double>> knn_rows, knn_query_rows;
    {
        stats::Rng rng(101);
        std::vector<double> targets;
        for (std::size_t i = 0; i < knn_n; ++i) {
            std::vector<double> row(kKnnDims);
            for (double& x : row) x = rng.normal();
            knn_rows.push_back(std::move(row));
            targets.push_back(rng.normal(0.0, 3.0));
        }
        for (std::size_t i = 0; i < knn_queries; ++i) {
            std::vector<double> row(kKnnDims);
            for (double& x : row) x = rng.normal();
            knn_query_rows.push_back(std::move(row));
        }
        knn.fit(knn_rows, targets);
    }
    KernelRow knn_row;
    knn.set_algorithm(stats::KnnRegressor::Algorithm::kBruteForce);
    const std::vector<double> knn_brute = knn.predict_batch(knn_query_rows);
    knn.set_algorithm(stats::KnnRegressor::Algorithm::kKdTree);
    const std::vector<double> knn_tree = knn.predict_batch(knn_query_rows);
    std::tie(knn_row.baseline_ms, knn_row.optimized_ms) = time_pair_ms(
        [&] {
            knn.set_algorithm(stats::KnnRegressor::Algorithm::kBruteForce);
            knn.predict_batch(knn_query_rows);
        },
        [&] {
            knn.set_algorithm(stats::KnnRegressor::Algorithm::kKdTree);
            knn.predict_batch(knn_query_rows);
        },
        small ? 3 : 5);
    knn_row.identical = knn_brute == knn_tree;
    print_row("knn", "brute-force", "kd-tree", knn_row);

    // ---- CBN posterior: enumeration vs variable elimination --------------
    const std::size_t bn_vars = small ? 8 : 14;
    wise::BayesianNetwork net([&] {
        std::vector<std::int32_t> cards(bn_vars, 2);
        cards[1] = 3;
        cards[bn_vars - 1] = 3;
        return cards;
    }());
    for (std::size_t v = 2; v < bn_vars; ++v) net.set_parents(v, {v - 1, v - 2});
    net.set_parents(1, {0});
    std::vector<wise::Assignment> bn_rows;
    {
        stats::Rng rng(202);
        for (int i = 0; i < 2000; ++i) {
            wise::Assignment row(bn_vars, 0);
            for (std::size_t v = 0; v < bn_vars; ++v)
                row[v] = static_cast<std::int32_t>(rng.uniform_index(
                    static_cast<std::size_t>(net.cardinality(v))));
            bn_rows.push_back(std::move(row));
        }
        net.fit(bn_rows, 1.0);
    }
    // Distinct queries: every variable queried under evidence on two other
    // variables, all evidence value combinations.
    std::vector<std::pair<std::size_t, std::map<std::size_t, std::int32_t>>>
        bn_queries;
    for (std::size_t q = 0; q < bn_vars; ++q) {
        const std::size_t e1 = (q + 3) % bn_vars;
        const std::size_t e2 = (q + 7) % bn_vars;
        if (e1 == q || e2 == q || e1 == e2) continue;
        for (std::int32_t v1 = 0; v1 < net.cardinality(e1); ++v1)
            for (std::int32_t v2 = 0; v2 < net.cardinality(e2); ++v2)
                bn_queries.push_back({q, {{e1, v1}, {e2, v2}}});
    }
    std::vector<std::vector<double>> bn_enum, bn_ve;
    const auto run_enumeration = [&] {
        bn_enum.clear();
        for (const auto& [q, ev] : bn_queries)
            bn_enum.push_back(net.posterior_enumerate(q, ev));
    };
    const auto run_ve = [&] {
        bn_ve.clear();
        for (const auto& [q, ev] : bn_queries) bn_ve.push_back(net.posterior(q, ev));
    };
    KernelRow cbn_row;
    run_enumeration();
    cbn_row.baseline_ms = time_ms(run_enumeration, small ? 3 : 5);
    // Cold VE: refitting with the same rows resets the memo cache without
    // changing the CPTs, so every timed rep does the full elimination work.
    const auto time_cold_ve = [&] {
        net.fit(bn_rows, 1.0);
        run_ve();
    };
    time_cold_ve();
    cbn_row.optimized_ms = time_ms(time_cold_ve, small ? 3 : 5);
    const double cached_ms = time_ms(run_ve); // every query now memoized
    cbn_row.identical = true;
    for (std::size_t i = 0; i < bn_queries.size(); ++i)
        for (std::size_t j = 0; j < bn_enum[i].size(); ++j)
            if (std::abs(bn_enum[i][j] - bn_ve[i][j]) > 1e-12)
                cbn_row.identical = false;
    print_row("cbn", "enumeration", "var-elim", cbn_row);
    std::printf("%-10s %-14s %9s      %-14s %9.2f ms   speedup %6.2fx\n", "",
                "", "", "memo-cached", cached_ms,
                cbn_row.baseline_ms / cached_ms);

    // ---- q̂ matrix: per-call model queries vs shared matrix ---------------
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    stats::Rng trace_rng(303);
    const core::UniformRandomPolicy logging(env.num_decisions());
    const Trace trace =
        core::collect_trace(env, logging, small ? 500 : 4000, trace_rng);
    core::KnnRewardModel model(env.num_decisions(), 5);
    model.fit(trace);
    const core::UniformRandomPolicy target(env.num_decisions());
    core::EstimatorOptions options;
    double qhat_checksum_model = 0.0, qhat_checksum_matrix = 0.0;
    const auto run_suite_model = [&] {
        qhat_checksum_model =
            core::direct_method(trace, target, model).value +
            core::doubly_robust(trace, target, model).value +
            core::switch_doubly_robust(trace, target, model, options).value +
            core::self_normalized_doubly_robust(trace, target, model).value;
    };
    const auto run_suite_matrix = [&] {
        const core::PredictionMatrix qhat = core::PredictionMatrix::build(model, trace);
        qhat_checksum_matrix =
            core::direct_method(trace, target, qhat).value +
            core::doubly_robust(trace, target, qhat).value +
            core::switch_doubly_robust(trace, target, qhat, options).value +
            core::self_normalized_doubly_robust(trace, target, qhat).value;
    };
    KernelRow qhat_row;
    run_suite_model();
    qhat_row.baseline_ms = time_ms(run_suite_model, small ? 3 : 5);
    run_suite_matrix();
    qhat_row.optimized_ms = time_ms(run_suite_matrix, small ? 3 : 5);
    qhat_row.identical = qhat_checksum_model == qhat_checksum_matrix;
    print_row("qhat", "per-call", "shared-matrix", qhat_row);

    // ---- q̂ fill: scalar ISA vs dispatched SIMD ---------------------------
    // Same matrix build (k-NN model, KD-tree leaf scans) pinned to the
    // scalar kernels vs whatever the CPU dispatches to. The canonical
    // 8-lane contract (src/simd/simd.h) makes the two matrices
    // byte-identical; only the wall clock moves.
    const simd::Level native_level = simd::active_level();
    KernelRow fill_row;
    simd::set_active_level(simd::Level::kScalar);
    const core::PredictionMatrix fill_scalar =
        core::PredictionMatrix::build(model, trace);
    simd::set_active_level(native_level);
    const core::PredictionMatrix fill_simd =
        core::PredictionMatrix::build(model, trace);
    std::tie(fill_row.baseline_ms, fill_row.optimized_ms) = time_pair_ms(
        [&] {
            simd::set_active_level(simd::Level::kScalar);
            core::PredictionMatrix::build(model, trace);
        },
        [&] {
            simd::set_active_level(native_level);
            core::PredictionMatrix::build(model, trace);
        },
        small ? 3 : 5);
    simd::set_active_level(native_level);
    fill_row.identical =
        fill_scalar.num_tuples() == fill_simd.num_tuples() &&
        fill_scalar.num_decisions() == fill_simd.num_decisions() &&
        std::memcmp(fill_scalar.row(0), fill_simd.row(0),
                    fill_scalar.num_tuples() * fill_scalar.num_decisions() *
                        sizeof(double)) == 0;
    print_row("qhat_fill", "scalar-isa",
              simd::level_name(native_level), fill_row);

    // ---- bootstrap_ci: serial vs configured threads ----------------------
    std::vector<double> sample(2000);
    {
        stats::Rng fill(7);
        for (double& x : sample) x = fill.lognormal(0.0, 1.0);
    }
    const int replicates = small ? 1000 : 10000;
    const auto run_bootstrap = [&] {
        stats::Rng rng(42);
        return stats::bootstrap_mean_ci(sample, rng, replicates);
    };
    KernelRow boot_row;
    par::set_thread_count(1);
    const stats::ConfidenceInterval ci_serial = run_bootstrap();
    par::set_thread_count(threads);
    const stats::ConfidenceInterval ci_parallel = run_bootstrap();
    // Interleave serial/parallel reps by hand so the pool resize (a thread
    // teardown + spawn when threads > 1) happens outside the timed region.
    for (int rep = 0; rep < 7; ++rep) {
        par::set_thread_count(1);
        const double serial_ms = time_ms(run_bootstrap, 1);
        par::set_thread_count(threads);
        const double parallel_ms = time_ms(run_bootstrap, 1);
        if (rep == 0 || serial_ms < boot_row.baseline_ms)
            boot_row.baseline_ms = serial_ms;
        if (rep == 0 || parallel_ms < boot_row.optimized_ms)
            boot_row.optimized_ms = parallel_ms;
    }
    boot_row.identical = ci_serial.lower == ci_parallel.lower &&
                         ci_serial.upper == ci_parallel.upper &&
                         ci_serial.point == ci_parallel.point;
    print_row("bootstrap", "serial", "parallel", boot_row);

    // ---- chunked bootstrap: scalar ISA vs dispatched resampler -----------
    // chunked_bootstrap_mean_ci (the DR CI of every evaluation) pinned to
    // the scalar resample_sum8 vs the dispatched one. 50k values leave a
    // ragged last chunk (848 of them), and 1001 replicates leave one
    // replicate past a multiple of the AVX2 pass width. Same bits by
    // contract; only the wall clock moves.
    std::vector<double> chunked_sample(50000);
    {
        stats::Rng fill(8);
        for (double& x : chunked_sample) x = fill.lognormal(0.0, 1.0);
    }
    constexpr int kChunkedReplicates = 1001;
    const auto run_chunked = [&](simd::Level level) {
        simd::set_active_level(level);
        stats::Rng rng(43);
        return stats::chunked_bootstrap_mean_ci(chunked_sample, 0.0, rng,
                                                kChunkedReplicates);
    };
    const stats::ConfidenceInterval chunked_scalar =
        run_chunked(simd::Level::kScalar);
    const stats::ConfidenceInterval chunked_simd = run_chunked(native_level);
    KernelRow chunked_row;
    std::tie(chunked_row.baseline_ms, chunked_row.optimized_ms) = time_pair_ms(
        [&] { run_chunked(simd::Level::kScalar); },
        [&] { run_chunked(native_level); }, small ? 3 : 5);
    simd::set_active_level(native_level);
    chunked_row.identical = chunked_scalar.lower == chunked_simd.lower &&
                            chunked_scalar.upper == chunked_simd.upper;
    print_row("chunked", "scalar-isa", simd::level_name(native_level),
              chunked_row);

    // ---- outputs ---------------------------------------------------------
    obs::Report report =
        bench::make_bench_report("micro_kernels", small ? "small" : "full");
    report.set("knn", "n", static_cast<std::uint64_t>(knn_n));
    report.set("knn", "queries", static_cast<std::uint64_t>(knn_queries));
    report.set("knn", "brute_ms", knn_row.baseline_ms);
    report.set("knn", "kdtree_ms", knn_row.optimized_ms);
    report.set("knn", "speedup", knn_row.speedup());
    report.set("knn", "identical", knn_row.identical);
    report.set("cbn", "queries", static_cast<std::uint64_t>(bn_queries.size()));
    report.set("cbn", "enumeration_ms", cbn_row.baseline_ms);
    report.set("cbn", "ve_ms", cbn_row.optimized_ms);
    report.set("cbn", "cached_ms", cached_ms);
    report.set("cbn", "speedup", cbn_row.speedup());
    report.set("cbn", "identical", cbn_row.identical);
    report.set("qhat", "tuples", static_cast<std::uint64_t>(trace.size()));
    report.set("qhat", "decisions",
               static_cast<std::uint64_t>(env.num_decisions()));
    report.set("qhat", "per_call_ms", qhat_row.baseline_ms);
    report.set("qhat", "matrix_ms", qhat_row.optimized_ms);
    report.set("qhat", "speedup", qhat_row.speedup());
    report.set("qhat", "identical", qhat_row.identical);
    report.set("qhat_fill", "level", simd::level_name(native_level));
    report.set("qhat_fill", "scalar_ms", fill_row.baseline_ms);
    report.set("qhat_fill", "simd_ms", fill_row.optimized_ms);
    report.set("qhat_fill", "speedup", fill_row.speedup());
    report.set("qhat_fill", "identical", fill_row.identical);
    report.set("bootstrap", "replicates", replicates);
    report.set("bootstrap", "serial_ms", boot_row.baseline_ms);
    report.set("bootstrap", "parallel_ms", boot_row.optimized_ms);
    report.set("bootstrap", "speedup", boot_row.speedup());
    report.set("bootstrap", "identical", boot_row.identical);
    report.set("chunked_bootstrap", "level", simd::level_name(native_level));
    report.set("chunked_bootstrap", "values",
               static_cast<std::uint64_t>(chunked_sample.size()));
    report.set("chunked_bootstrap", "replicates", kChunkedReplicates);
    report.set("chunked_bootstrap", "scalar_ms", chunked_row.baseline_ms);
    report.set("chunked_bootstrap", "simd_ms", chunked_row.optimized_ms);
    report.set("chunked_bootstrap", "speedup", chunked_row.speedup());
    report.set("chunked_bootstrap", "identical", chunked_row.identical);
    bench::write_bench_json(std::move(report), "BENCH_kernels.json");

    if (fingerprint_path != nullptr) {
        std::FILE* fp = std::fopen(fingerprint_path, "w");
        if (fp != nullptr) {
            for (std::size_t i = 0; i < knn_tree.size(); i += 7)
                std::fprintf(fp, "knn %zu %.17g\n", i, knn_tree[i]);
            for (std::size_t i = 0; i < bn_ve.size(); ++i)
                for (std::size_t j = 0; j < bn_ve[i].size(); ++j)
                    std::fprintf(fp, "cbn %zu %zu %.17g\n", i, j, bn_ve[i][j]);
            std::fprintf(fp, "qhat %.17g\n", qhat_checksum_matrix);
            std::fprintf(fp, "bootstrap %.17g %.17g %.17g\n", ci_parallel.point,
                         ci_parallel.lower, ci_parallel.upper);
            std::fprintf(fp, "chunked_bootstrap %.17g %.17g\n",
                         chunked_simd.lower, chunked_simd.upper);
#if DRE_OBS_ENABLED
            // Work counters that are per-item deterministic sums — totals
            // must byte-match for any DRE_THREADS. Timing- or
            // chunk-geometry-dependent metrics (par.*, span durations)
            // deliberately stay out.
            for (const char* name :
                 {"cbn.cache_hits", "cbn.cache_misses", "knn.queries",
                  "knn.nodes_pruned", "knn.leaf_points_scanned",
                  "estimators.zero_prob_skips",
                  "estimators.switch_model_fallbacks"}) {
                std::fprintf(fp, "obs %s %llu\n", name,
                             static_cast<unsigned long long>(
                                 obs::registry().counter(name).value()));
            }
#endif
            std::fclose(fp);
            std::printf("wrote fingerprint to %s\n", fingerprint_path);
        }
    }

    return knn_row.identical && cbn_row.identical && qhat_row.identical &&
                   fill_row.identical && boot_row.identical &&
                   chunked_row.identical
               ? 0
               : 1;
}
