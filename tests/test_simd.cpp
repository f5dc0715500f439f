// dre::simd dispatch + kernel equivalence tests.
//
// The library's contract (src/simd/simd.h) is byte-identical results at
// every dispatch level: integer kernels are exact by construction and the
// FP kernels all implement one canonical fixed-8-lane arithmetic. These
// tests assert bitwise equality — never a tolerance — between the scalar
// reference (the executable spec) and every level the host CPU supports,
// from the raw kernels up through k-NN queries and the full estimator
// suite at multiple thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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

using namespace dre;

namespace {

// Every dispatch level, scalar first, whatever this CPU supports.
std::vector<simd::Level> all_levels() {
    std::vector<simd::Level> levels;
    for (int i = 0; i < simd::kNumLevels; ++i)
        levels.push_back(static_cast<simd::Level>(i));
    return levels;
}

const simd::Level kTopLevel = static_cast<simd::Level>(simd::kNumLevels - 1);

// Every level the host supports, scalar first (the reference).
std::vector<simd::Level> supported_levels() {
    std::vector<simd::Level> levels;
    for (simd::Level level : all_levels())
        if (level <= simd::detected_level()) levels.push_back(level);
    return levels;
}

// Bitwise double equality (distinguishes -0.0, compares NaN patterns).
::testing::AssertionResult bit_equal(double a, double b) {
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bitwise)";
}

// Restores the dispatch level and thread count on scope exit so tests
// cannot leak global state into each other.
struct DispatchGuard {
    simd::Level level = simd::active_level();
    std::size_t threads = par::thread_count();
    ~DispatchGuard() {
        simd::set_active_level(level);
        par::set_thread_count(threads);
    }
};

std::vector<double> random_vector(std::size_t n, stats::Rng& rng,
                                  double scale = 1.0) {
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.normal(0.0, scale);
    return xs;
}

} // namespace

// Names the levels this run checks the kernels at, so a log shows
// whether the host ran the widest level or stopped short of it.
TEST(SimdDispatch, SupportedLevelsRunFromScalarToDetected) {
    const std::vector<simd::Level> levels = supported_levels();
    std::string names;
    for (simd::Level level : levels)
        names += std::string(names.empty() ? "" : " ") +
                 simd::level_name(level);
    std::printf("[ levels   ] checking %s (detected %s, widest %s)\n",
                names.c_str(), simd::level_name(simd::detected_level()),
                simd::level_name(kTopLevel));
    ::testing::Test::RecordProperty("simd_levels", names);
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), simd::Level::kScalar);
    // kNumLevels must reach every level the probe can return.
    EXPECT_EQ(levels.back(), simd::detected_level());
}

TEST(SimdDispatch, ParseLevel) {
    EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
    // SSE4.2 is no dispatch level (AVX2 carries the hardware CRC).
    EXPECT_EQ(simd::parse_level("sse42"), std::nullopt);
    EXPECT_EQ(simd::parse_level("sse4.2"), std::nullopt);
    EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
    EXPECT_EQ(simd::parse_level("avx512"), simd::Level::kAvx512);
    EXPECT_EQ(simd::parse_level("avx512f"), std::nullopt);
    EXPECT_EQ(simd::parse_level(""), std::nullopt);
    EXPECT_EQ(simd::parse_level(nullptr), std::nullopt);
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
    for (simd::Level level : all_levels())
        EXPECT_EQ(simd::parse_level(simd::level_name(level)), level);
}

TEST(SimdDispatch, ActiveLevelNeverExceedsDetected) {
    EXPECT_LE(simd::active_level(), simd::detected_level());
}

TEST(SimdDispatch, SetActiveLevelClampsToCap) {
    DispatchGuard guard;
    // A capped request activates the cap, not the request: this simulates
    // dispatch on a CPU weaker than the build host.
    for (simd::Level cap : supported_levels()) {
        EXPECT_EQ(simd::set_active_level(kTopLevel, cap), cap)
            << simd::level_name(cap);
        EXPECT_EQ(simd::active_level(), cap) << simd::level_name(cap);
    }
    // Requests above detected clamp to detected even with a generous cap.
    EXPECT_EQ(simd::set_active_level(kTopLevel), simd::detected_level());
    EXPECT_EQ(simd::set_active_level(kTopLevel, kTopLevel),
              simd::detected_level());
}

TEST(SimdDispatch, OpsForClampsToDetected) {
    // Asking for a level above what the CPU has must return a table that
    // cannot fault — i.e. the detected level's table.
    for (simd::Level level : all_levels()) {
        if (level > simd::detected_level()) {
            EXPECT_EQ(&simd::ops_for(level),
                      &simd::ops_for(simd::detected_level()))
                << simd::level_name(level);
        }
    }
}

TEST(SimdCrc, KnownVector) {
    // The iSCSI CRC-32C check value.
    const char digits[] = "123456789";
    for (simd::Level level : supported_levels())
        EXPECT_EQ(simd::ops_for(level).crc32c(digits, 9, 0), 0xE3069283u)
            << simd::level_name(level);
}

TEST(SimdCrc, LevelsAgreeAcrossSizesOffsetsSeeds) {
    stats::Rng rng(11);
    std::vector<unsigned char> buf(70000);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.uniform_index(256));
    const std::size_t sizes[] = {0,   1,    2,    7,    8,    9,    15,  16,
                                 63,  64,   127,  383,  384,  385,  767,
                                 768, 4095, 4096, 4097, 8193, 12288, 65536};
    const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
    for (simd::Level level : supported_levels()) {
        const simd::Ops& ops = simd::ops_for(level);
        for (std::size_t size : sizes)
            for (std::size_t offset : {0u, 1u, 5u})
                for (std::uint32_t seed : {0u, 0xdeadbeefu})
                    EXPECT_EQ(ops.crc32c(buf.data() + offset, size, seed),
                              scalar.crc32c(buf.data() + offset, size, seed))
                        << simd::level_name(level) << " size=" << size
                        << " offset=" << offset << " seed=" << seed;
    }
}

TEST(SimdCrc, ChainingEqualsOneShot) {
    stats::Rng rng(12);
    std::vector<unsigned char> buf(10000);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.uniform_index(256));
    for (simd::Level level : supported_levels()) {
        const simd::Ops& ops = simd::ops_for(level);
        const std::uint32_t one_shot = ops.crc32c(buf.data(), buf.size(), 0);
        for (std::size_t cut : {1ul, 9ul, 384ul, 4096ul, 9999ul}) {
            const std::uint32_t head = ops.crc32c(buf.data(), cut, 0);
            const std::uint32_t full =
                ops.crc32c(buf.data() + cut, buf.size() - cut, head);
            EXPECT_EQ(full, one_shot)
                << simd::level_name(level) << " cut=" << cut;
        }
    }
}

TEST(SimdKernels, L2sqScanMatchesScalar) {
    stats::Rng rng(21);
    const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
    for (std::size_t dims : {1ul, 2ul, 3ul, 8ul, 17ul}) {
        for (std::size_t nblocks : {1ul, 3ul, 8ul}) {
            const std::size_t n = nblocks * 8;
            const std::vector<double> blocks = random_vector(dims * n, rng);
            const std::vector<double> query = random_vector(dims, rng);
            std::vector<double> ref_d2(n), d2(n);
            std::vector<std::uint32_t> ref_idx(n), idx(n);
            // With an effectively-infinite worst, every point is a
            // candidate, in slot order.
            ASSERT_EQ(scalar.l2sq_scan(blocks.data(), nblocks, dims,
                                       query.data(), 1e30, ref_d2.data(),
                                       ref_idx.data()),
                      n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(ref_idx[i], static_cast<std::uint32_t>(i));
            // `worst` thresholds around the scan's own distances exercise
            // the no-abort, partial-candidate, and all-blocks-abandoned
            // paths.
            double max_d2 = 0.0;
            for (double v : ref_d2) max_d2 = std::max(max_d2, v);
            for (simd::Level level : supported_levels()) {
                const simd::Ops& ops = simd::ops_for(level);
                for (double worst :
                     {-1.0, 0.0, max_d2 * 0.25, max_d2, 1e30}) {
                    const std::size_t ref_n = scalar.l2sq_scan(
                        blocks.data(), nblocks, dims, query.data(), worst,
                        ref_d2.data(), ref_idx.data());
                    const std::size_t got_n =
                        ops.l2sq_scan(blocks.data(), nblocks, dims,
                                      query.data(), worst, d2.data(),
                                      idx.data());
                    // The candidate list — count, slot order, and bitwise
                    // distances — is part of the cross-level contract.
                    ASSERT_EQ(got_n, ref_n)
                        << simd::level_name(level) << " dims=" << dims
                        << " nblocks=" << nblocks << " worst=" << worst;
                    for (std::size_t i = 0; i < ref_n; ++i) {
                        EXPECT_EQ(idx[i], ref_idx[i])
                            << simd::level_name(level) << " i=" << i;
                        EXPECT_TRUE(bit_equal(d2[i], ref_d2[i]))
                            << simd::level_name(level) << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, WeightedSumSkipZeroMatchesScalarAndCountsSkips) {
    stats::Rng rng(23);
    for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 64ul, 333ul}) {
        std::vector<double> w = random_vector(n, rng);
        std::vector<double> x = random_vector(n, rng, 3.0);
        // Zero weights paired with poisonous values: the skip semantics say
        // these must contribute exactly +0.0, never NaN/inf.
        std::size_t expected_skips = 0;
        for (std::size_t i = 0; i < n; i += 3) {
            w[i] = 0.0;
            x[i] = (i % 2 == 0) ? std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::quiet_NaN();
            ++expected_skips;
        }
        std::uint64_t ref_skips = 0;
        const double ref = simd::ops_for(simd::Level::kScalar)
                               .weighted_sum_skip_zero(w.data(), x.data(), n,
                                                       &ref_skips);
        EXPECT_EQ(ref_skips, expected_skips);
        EXPECT_TRUE(std::isfinite(ref));
        for (simd::Level level : supported_levels()) {
            std::uint64_t skips = 0;
            const double got =
                simd::ops_for(level).weighted_sum_skip_zero(w.data(), x.data(),
                                                            n, &skips);
            EXPECT_TRUE(bit_equal(got, ref))
                << simd::level_name(level) << " n=" << n;
            EXPECT_EQ(skips, ref_skips) << simd::level_name(level);
            // A null skip counter must also be accepted.
            EXPECT_TRUE(bit_equal(simd::ops_for(level).weighted_sum_skip_zero(
                                      w.data(), x.data(), n, nullptr),
                                  ref));
        }
    }
}

namespace {

// The chunked bootstrap's per-replicate loop as it was written before the
// resample kernel existed: one uniform_index(m) call per draw from the
// replicate's own generator, draw i into lane i mod 8, canonical tree.
double per_draw_resample_sum(const std::vector<double>& values,
                             stats::Rng rng) {
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const std::size_t m = values.size();
    for (std::size_t i = 0; i < m; ++i)
        acc[i & 7] += values[rng.uniform_index(m)];
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

} // namespace

TEST(SimdKernels, ResampleSum8MatchesSpecAndPerDrawLoop) {
    // The only NaN among the values is x86's default NaN — the one
    // inf + (-inf) produces — so every NaN a sum can hold has one bit
    // pattern and bitwise equality does not hinge on which operand of an
    // add propagates its payload.
    const double nan = -std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const stats::Rng base(20170807);
    for (const std::size_t m : {1ul, 7ul, 8ul, 9ul, 848ul, 1808ul, 4095ul,
                                4096ul}) {
        stats::Rng fill(m);
        std::vector<double> finite = random_vector(m, fill, 3.0);
        std::vector<double> poisoned = finite;
        poisoned[0] = nan;
        poisoned[m / 2] = inf;
        poisoned[m - 1] = -inf;
        for (const std::size_t streams : {1ul, 7ul, 8ul, 9ul, 1000ul}) {
            // split(b) children, as the chunked bootstrap derives them.
            // Streams 0, 3, 11, ... get word 1 = 0, so their first output
            // is 0: Lemire rejects it unless m is a power of two, and the
            // vector levels' scalar fix-up runs in that lane while the
            // other lanes of the pass accept.
            std::vector<std::uint64_t> states(4 * streams);
            for (std::size_t b = 0; b < streams; ++b) {
                std::array<std::uint64_t, 4> words = base.split(b).state();
                if (b == 0 || b % 8 == 3) words[1] = 0;
                std::copy(words.begin(), words.end(), states.begin() + 4 * b);
            }
            for (const std::vector<double>* values : {&finite, &poisoned}) {
                std::vector<double> spec(streams);
                simd::ops_for(simd::Level::kScalar)
                    .resample_sum8(values->data(), m, states.data(), streams,
                                   spec.data());
                for (std::size_t b = 0; b < streams; ++b) {
                    std::array<std::uint64_t, 4> words;
                    std::copy_n(states.begin() + 4 * b, 4, words.begin());
                    ASSERT_TRUE(bit_equal(
                        spec[b], per_draw_resample_sum(
                                     *values, stats::Rng::from_state(words))))
                        << "m=" << m << " stream " << b;
                }
                for (simd::Level level : supported_levels()) {
                    std::vector<double> out(streams);
                    simd::ops_for(level).resample_sum8(
                        values->data(), m, states.data(), streams, out.data());
                    EXPECT_EQ(std::memcmp(out.data(), spec.data(),
                                          streams * sizeof(double)),
                              0)
                        << simd::level_name(level) << " m=" << m
                        << " streams=" << streams;
                }
            }
        }
    }
}

TEST(SimdKnn, KdTreeMatchesBruteForceAtEveryLevel) {
    DispatchGuard guard;
    stats::Rng rng(31);
    const std::size_t n = 700, dims = 5;
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(random_vector(dims, rng));
        targets.push_back(rng.normal(0.0, 2.0));
    }
    std::vector<std::vector<double>> queries;
    for (int q = 0; q < 60; ++q) queries.push_back(random_vector(dims, rng));

    stats::KnnRegressor knn(7);
    knn.fit(rows, targets);
    knn.set_algorithm(stats::KnnRegressor::Algorithm::kBruteForce);
    const std::vector<double> brute = knn.predict_batch(queries);

    std::vector<double> reference; // scalar KD-tree predictions
    for (simd::Level level : supported_levels()) {
        simd::set_active_level(level);
        knn.set_algorithm(stats::KnnRegressor::Algorithm::kKdTree);
        const std::vector<double> tree = knn.predict_batch(queries);
        ASSERT_EQ(tree.size(), brute.size());
        for (std::size_t i = 0; i < tree.size(); ++i) {
            EXPECT_TRUE(bit_equal(tree[i], brute[i]))
                << simd::level_name(level) << " query=" << i;
        }
        if (reference.empty()) reference = tree;
        EXPECT_EQ(std::memcmp(tree.data(), reference.data(),
                              tree.size() * sizeof(double)),
                  0)
            << simd::level_name(level);
    }
}

// End-to-end: the whole estimator suite (model path, matrix path, every
// q-hat cell, and the bootstrap CIs) must be byte-identical across every
// (dispatch level, thread count) combination — the (scalar, 1 thread) run
// is the golden.
TEST(SimdEndToEnd, EstimatorSuiteInvariantAcrossLevelsAndThreads) {
    DispatchGuard guard;
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    stats::Rng trace_rng(41);
    const core::UniformRandomPolicy logging(env.num_decisions());
    const Trace trace = core::collect_trace(env, logging, 600, trace_rng);
    core::KnnRewardModel model(env.num_decisions(), 5);
    model.fit(trace);
    const core::UniformRandomPolicy target(env.num_decisions());
    core::EstimatorOptions options;
    // Two full 4096-value chunks and a ragged 808-value tail for the
    // chunked bootstrap, whose 201 replicates end one past a multiple of
    // the vector levels' 8-stream pass width.
    std::vector<double> long_sample(9000);
    stats::Rng long_fill(79);
    for (double& x : long_sample) x = long_fill.lognormal(0.0, 1.0);

    struct Results {
        std::vector<double> values;
        bool operator==(const Results& other) const {
            return values.size() == other.values.size() &&
                   std::memcmp(values.data(), other.values.data(),
                               values.size() * sizeof(double)) == 0;
        }
    };
    const auto run_suite = [&] {
        Results r;
        const core::PredictionMatrix qhat =
            core::PredictionMatrix::build(model, trace);
        r.values = {
            core::direct_method(trace, target, model).value,
            core::doubly_robust(trace, target, model).value,
            core::doubly_robust(trace, target, qhat).value,
            core::switch_doubly_robust(trace, target, model, options).value,
            core::self_normalized_doubly_robust(trace, target, model).value,
        };
        std::vector<double> sample;
        for (const auto& t : trace) sample.push_back(t.reward);
        stats::Rng chunk_rng(78);
        const stats::ConfidenceInterval chunked =
            stats::chunked_bootstrap_mean_ci(sample, 0.0, chunk_rng, 200);
        r.values.push_back(chunked.lower);
        r.values.push_back(chunked.upper);
        stats::Rng long_rng(80);
        const stats::ConfidenceInterval chunked_long =
            stats::chunked_bootstrap_mean_ci(long_sample, 0.0, long_rng, 201);
        r.values.push_back(chunked_long.lower);
        r.values.push_back(chunked_long.upper);
        // Every q-hat cell, not just the estimates read off them.
        r.values.insert(r.values.end(), qhat.row(0),
                        qhat.row(0) + qhat.num_tuples() * qhat.num_decisions());
        return r;
    };

    simd::set_active_level(simd::Level::kScalar);
    par::set_thread_count(1);
    const Results golden = run_suite();

    for (simd::Level level : supported_levels()) {
        for (std::size_t threads : {1ul, 8ul}) {
            simd::set_active_level(level);
            par::set_thread_count(threads);
            const Results got = run_suite();
            EXPECT_TRUE(got == golden)
                << "level=" << simd::level_name(level)
                << " threads=" << threads;
        }
    }
}

// Dispatch fallback, end to end: force the weaker tables (as if the CPU
// lacked the instructions) and check a store-style CRC and a k-NN query
// still answer identically through the dispatched ops() table.
TEST(SimdEndToEnd, ForcedFallbackIsTransparent) {
    DispatchGuard guard;
    stats::Rng rng(51);
    std::vector<unsigned char> buf(5000);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.uniform_index(256));

    simd::set_active_level(simd::Level::kScalar);
    const std::uint32_t crc_scalar =
        simd::ops().crc32c(buf.data(), buf.size(), 0);
    for (simd::Level level : supported_levels()) {
        // Cap below the request: the request must degrade, not fault.
        simd::set_active_level(simd::detected_level(), level);
        EXPECT_EQ(simd::active_level(), level);
        EXPECT_EQ(simd::ops().crc32c(buf.data(), buf.size(), 0), crc_scalar)
            << simd::level_name(level);
    }
}
