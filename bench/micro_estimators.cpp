// E13 — google-benchmark microbenchmarks: estimator cost per logged tuple,
// and each rebuilt kernel timed against the reference it replaced. The
// pairs only time; test_knn, test_bayes_net and test_simd assert that the
// two sides of each pair agree.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/environment.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "simd/simd.h"
#include "stats/knn.h"
#include "stats/rng.h"
#include "wise/bayes_net.h"

namespace {

using namespace dre;

class BenchEnv final : public core::Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)},
                             {static_cast<std::int32_t>(rng.uniform_index(8))});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return c.numeric[0] * (d + 1.0) + rng.normal(0.0, 0.1);
    }
    std::size_t num_decisions() const noexcept override { return 8; }
};

struct Fixture {
    Trace trace;
    std::unique_ptr<core::Policy> target;
    std::unique_ptr<core::RewardModel> model;

    explicit Fixture(std::size_t n) {
        BenchEnv env;
        stats::Rng rng(1);
        core::UniformRandomPolicy logging(env.num_decisions());
        trace = core::collect_trace(env, logging, n, rng);
        target = std::make_unique<core::DeterministicPolicy>(
            env.num_decisions(), [](const ClientContext& c) {
                return static_cast<Decision>(c.numeric[0] > 0.0 ? 7 : 0);
            });
        auto tabular = std::make_unique<core::TabularRewardModel>(8);
        tabular->fit(trace);
        model = std::move(tabular);
    }
};

void BM_DirectMethod(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::direct_method(fx.trace, *fx.target, *fx.model).value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Ips(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::inverse_propensity(fx.trace, *fx.target).value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DoublyRobust(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::doubly_robust(fx.trace, *fx.target, *fx.model).value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SwitchDr(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    const core::EstimatorOptions options;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::switch_doubly_robust(fx.trace, *fx.target, *fx.model, options)
                .value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_FitTabularModel(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        core::TabularRewardModel model(8);
        model.fit(fx.trace);
        benchmark::DoNotOptimize(model.cells());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

// --- Kernel pairs -----------------------------------------------------------

// k-NN: 200 queries against n standardized 8-dimensional points, k = 10.
void BM_KnnPredictBatch(benchmark::State& state,
                        stats::KnnRegressor::Algorithm algorithm) {
    const auto n = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(101);
    std::vector<std::vector<double>> rows, queries;
    std::vector<double> targets;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(8);
        for (double& x : row) x = rng.normal();
        rows.push_back(std::move(row));
        targets.push_back(rng.normal(0.0, 3.0));
    }
    for (int i = 0; i < 200; ++i) {
        std::vector<double> query(8);
        for (double& x : query) x = rng.normal();
        queries.push_back(std::move(query));
    }
    stats::KnnRegressor knn(10);
    knn.fit(rows, targets);
    knn.set_algorithm(algorithm);
    for (auto _ : state) benchmark::DoNotOptimize(knn.predict_batch(queries));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(queries.size()));
}

// CBN posteriors on a chain-of-pairs network of `vars` variables fit to
// 2,000 rows: every variable queried under evidence on two others, over
// all evidence values.
struct CbnFixture {
    wise::BayesianNetwork net;
    std::vector<wise::Assignment> rows;
    std::vector<std::pair<std::size_t, std::map<std::size_t, std::int32_t>>>
        queries;

    static std::vector<std::int32_t> cardinalities(std::size_t vars) {
        std::vector<std::int32_t> cards(vars, 2);
        cards[1] = 3;
        cards[vars - 1] = 3;
        return cards;
    }

    explicit CbnFixture(std::size_t vars) : net(cardinalities(vars)) {
        net.set_parents(1, {0});
        for (std::size_t v = 2; v < vars; ++v) net.set_parents(v, {v - 1, v - 2});
        stats::Rng rng(202);
        for (int i = 0; i < 2000; ++i) {
            wise::Assignment row(vars);
            for (std::size_t v = 0; v < vars; ++v)
                row[v] = static_cast<std::int32_t>(rng.uniform_index(
                    static_cast<std::size_t>(net.cardinality(v))));
            rows.push_back(std::move(row));
        }
        net.fit(rows, 1.0);
        for (std::size_t q = 0; q < vars; ++q) {
            const std::size_t e1 = (q + 3) % vars;
            const std::size_t e2 = (q + 7) % vars;
            if (e1 == q || e2 == q || e1 == e2) continue;
            for (std::int32_t v1 = 0; v1 < net.cardinality(e1); ++v1)
                for (std::int32_t v2 = 0; v2 < net.cardinality(e2); ++v2)
                    queries.push_back({q, {{e1, v1}, {e2, v2}}});
        }
    }
};

void BM_CbnEnumeration(benchmark::State& state) {
    const CbnFixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        for (const auto& [query, evidence] : fx.queries)
            benchmark::DoNotOptimize(fx.net.posterior_enumerate(query, evidence));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.queries.size()));
}

void BM_CbnVariableElimination(benchmark::State& state) {
    CbnFixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        // A refit with the same rows empties the memo cache without
        // changing a CPT, so every timed query runs the elimination.
        state.PauseTiming();
        fx.net.fit(fx.rows, 1.0);
        state.ResumeTiming();
        for (const auto& [query, evidence] : fx.queries)
            benchmark::DoNotOptimize(fx.net.posterior(query, evidence));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.queries.size()));
}

// The bootstrap resampler on one chunk for 1001 replicates (one past a
// multiple of the 8-stream pass width) at each vector level and at the
// scalar spec: a full 4096-value chunk (power of two, never rejects) and a
// 1808-value one (eval_batch's ragged last chunk, which runs Lemire's
// rejection check). A level this CPU lacks is reported as skipped rather
// than timed at a lower level.
void BM_ResampleSum8(benchmark::State& state, simd::Level level) {
    const auto m = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kStreams = 1001;
    if (level > simd::detected_level()) {
        state.SkipWithError("level not supported by this CPU");
        return;
    }
    const simd::Ops& ops = simd::ops_for(level);
    stats::Rng fill(8);
    std::vector<double> values(m);
    for (double& x : values) x = fill.lognormal(0.0, 1.0);
    const stats::Rng base(43);
    std::vector<std::uint64_t> states;
    for (std::size_t b = 0; b < kStreams; ++b)
        for (const std::uint64_t word : base.split(b).state())
            states.push_back(word);
    std::vector<double> sums(kStreams);
    for (auto _ : state) {
        ops.resample_sum8(values.data(), m, states.data(), kStreams,
                          sums.data());
        benchmark::DoNotOptimize(sums.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m * kStreams));
}

BENCHMARK(BM_DirectMethod)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Ips)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DoublyRobust)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SwitchDr)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FitTabularModel)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_CAPTURE(BM_KnnPredictBatch, brute_force,
                  stats::KnnRegressor::Algorithm::kBruteForce)
    ->Arg(2000)
    ->Arg(50000)
    ->UseRealTime() // predict_batch runs on the dre::par pool
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_KnnPredictBatch, kd_tree,
                  stats::KnnRegressor::Algorithm::kKdTree)
    ->Arg(2000)
    ->Arg(50000)
    ->UseRealTime() // predict_batch runs on the dre::par pool
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CbnEnumeration)->Arg(8)->Arg(14)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CbnVariableElimination)
    ->Arg(8)
    ->Arg(14)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResampleSum8, scalar, simd::Level::kScalar)
    ->Arg(4096)
    ->Arg(1808)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResampleSum8, avx2, simd::Level::kAvx2)
    ->Arg(4096)
    ->Arg(1808)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResampleSum8, avx512, simd::Level::kAvx512)
    ->Arg(4096)
    ->Arg(1808)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
