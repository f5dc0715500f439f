// Golden determinism tests: the whole experiment pipeline must be exactly
// reproducible for a fixed seed, across runs and across refactorings that
// are not supposed to change behaviour. These tests pin down aggregate
// fingerprints rather than every float, so legitimate algorithm changes
// fail loudly but review remains easy (update the constant, explain why).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/reward_model.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "wise/scenario.h"

namespace dre {
namespace {

// Order-sensitive fingerprint of a trace's decisions and quantized rewards.
std::uint64_t trace_fingerprint(const Trace& trace) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 0x100000001b3ull;
    };
    for (const auto& t : trace) {
        mix(static_cast<std::uint64_t>(t.decision));
        mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(t.reward * 1e6)));
    }
    return h;
}

TEST(Determinism, RngStreamIsStableAcrossRuns) {
    stats::Rng rng(123);
    // First three raw outputs of xoshiro256** seeded via SplitMix64(123).
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    stats::Rng again(123);
    EXPECT_EQ(again.next_u64(), a);
    EXPECT_EQ(again.next_u64(), b);
}

TEST(Determinism, IdenticalSeedsProduceIdenticalTraces) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng1(7), rng2(7);
    const Trace t1 = core::collect_trace(env, logging, 500, rng1);
    const Trace t2 = core::collect_trace(env, logging, 500, rng2);
    EXPECT_EQ(trace_fingerprint(t1), trace_fingerprint(t2));
}

TEST(Determinism, DifferentSeedsDiverge) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng1(7), rng2(8);
    const Trace t1 = core::collect_trace(env, logging, 500, rng1);
    const Trace t2 = core::collect_trace(env, logging, 500, rng2);
    EXPECT_NE(trace_fingerprint(t1), trace_fingerprint(t2));
}

TEST(Determinism, EstimatorValueReproducesExactly) {
    wise::RequestRoutingEnv env{wise::WiseWorldConfig{}};
    const auto logging = wise::make_logging_policy(2);
    const auto target = wise::make_new_policy(2, 0.5);

    const auto run_once = [&]() {
        stats::Rng rng(31415);
        const Trace trace = core::collect_trace(env, *logging, 1030, rng);
        wise::WiseCbnRewardModel model;
        model.fit(trace);
        return core::doubly_robust(trace, *target, model).value;
    };
    const double first = run_once();
    const double second = run_once();
    EXPECT_EQ(first, second); // bit-exact, not just approximately equal
}

// The dre::par contract: any DRE_THREADS setting — including the fully
// serial 1 — produces bit-identical results. These tests flip the global
// pool between 1 and 8 threads in-process and compare raw doubles with
// EXPECT_EQ (no tolerance).

// Restores the default pool size even if an assertion fails midway.
class ThreadCountGuard {
public:
    ~ThreadCountGuard() { par::set_thread_count(0); }
};

TEST(Determinism, BootstrapCiIsThreadCountInvariant) {
    ThreadCountGuard guard;
    stats::Rng fill(2024);
    // Two chunks (4096 + 904 values), so the partials run as parallel tasks.
    std::vector<double> sample(5000);
    for (double& x : sample) x = fill.lognormal(0.0, 1.0);

    const auto run_with = [&](std::size_t threads) {
        par::set_thread_count(threads);
        stats::Rng rng(808);
        return stats::chunked_bootstrap_mean_ci(sample, stats::mean(sample),
                                                rng, 4000);
    };
    const stats::ConfidenceInterval serial = run_with(1);
    const stats::ConfidenceInterval parallel = run_with(8);
    EXPECT_EQ(serial.point, parallel.point);
    EXPECT_EQ(serial.lower, parallel.lower);
    EXPECT_EQ(serial.upper, parallel.upper);
}

TEST(Determinism, EvaluatorCompareIsThreadCountInvariant) {
    ThreadCountGuard guard;
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng trace_rng(4242);
    const Trace trace = core::collect_trace(env, logging, 3000, trace_rng);

    std::vector<std::unique_ptr<core::Policy>> owned;
    std::vector<const core::Policy*> policies;
    for (std::size_t p = 0; p < 4; ++p) {
        const auto fixed = static_cast<Decision>(p % env.num_decisions());
        owned.push_back(std::make_unique<core::DeterministicPolicy>(
            env.num_decisions(),
            [fixed](const ClientContext&) { return fixed; }));
        policies.push_back(owned.back().get());
    }
    core::EvaluationConfig config;
    config.ci_replicates = 300; // exercises the per-policy split RNG streams

    const auto run_with = [&](std::size_t threads) {
        par::set_thread_count(threads);
        core::Evaluator evaluator(trace, config, stats::Rng(77));
        return evaluator.compare(policies);
    };
    const core::Evaluator::Comparison serial = run_with(1);
    const core::Evaluator::Comparison parallel = run_with(8);
    ASSERT_EQ(serial.evaluations.size(), parallel.evaluations.size());
    EXPECT_EQ(serial.best_index, parallel.best_index);
    for (std::size_t i = 0; i < serial.evaluations.size(); ++i) {
        EXPECT_EQ(serial.evaluations[i].dm.value, parallel.evaluations[i].dm.value);
        EXPECT_EQ(serial.evaluations[i].ips.value, parallel.evaluations[i].ips.value);
        EXPECT_EQ(serial.evaluations[i].dr.value, parallel.evaluations[i].dr.value);
        ASSERT_TRUE(serial.evaluations[i].dr_ci.has_value());
        ASSERT_TRUE(parallel.evaluations[i].dr_ci.has_value());
        EXPECT_EQ(serial.evaluations[i].dr_ci->lower,
                  parallel.evaluations[i].dr_ci->lower);
        EXPECT_EQ(serial.evaluations[i].dr_ci->upper,
                  parallel.evaluations[i].dr_ci->upper);
    }
}

TEST(Determinism, EstimatorSumsAreThreadCountInvariant) {
    ThreadCountGuard guard;
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(999);
    // Longer than par::kReduceChunk so the ordered chunk combine is hit.
    const Trace trace = core::collect_trace(env, logging, 6000, rng);
    core::KnnRewardModel model(env.num_decisions(), 10);
    model.fit(trace);

    const auto run_with = [&](std::size_t threads) {
        par::set_thread_count(threads);
        return core::doubly_robust(trace, logging, model).value;
    };
    EXPECT_EQ(run_with(1), run_with(8));
}

TEST(Determinism, EnvironmentWorldParametersAreSeedStable) {
    // Two environments with the same world seed agree on expected rewards.
    cdn::CdnWorldConfig config;
    cdn::VideoQualityEnv env1(config), env2(config);
    stats::Rng rng(1);
    const ClientContext c = env1.sample_context(rng);
    for (std::size_t d = 0; d < env1.num_decisions(); ++d) {
        stats::Rng unused(0);
        EXPECT_EQ(env1.expected_reward(c, static_cast<Decision>(d), unused, 1),
                  env2.expected_reward(c, static_cast<Decision>(d), unused, 1));
    }
}

} // namespace
} // namespace dre
