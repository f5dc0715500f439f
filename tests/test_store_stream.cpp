// Streaming-vs-in-memory determinism contract (DESIGN.md §9).
//
// evaluate_streaming must reproduce core::Evaluator bit-for-bit — every
// point estimate, the overlap diagnostics, and both bootstrap CI endpoints
// — for any thread count, I/O backend, and shard split. The golden
// fingerprint pins the actual values across commits: regenerate with
//   DRE_UPDATE_STORE_GOLDEN=1 ./test_store_stream
// after an *intentional* numerics change.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "core/policy_learning.h"
#include "stats/rng.h"
#include "store/sharded.h"
#include "store/writer.h"
#include "trace/trace.h"
#include "wise/scenario.h"

namespace dre::core {
namespace {

namespace fs = std::filesystem;

Trace cdn_trace(std::size_t n) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(12);
    return collect_trace(env, logging, n, rng);
}

// cdn contexts widened past ClientContext::kInlineDims: 7 numeric (6 noise
// features) and 5 categorical (2 extra codes), so every context keeps its
// features in heap blocks.
Trace wide_cdn_trace(std::size_t n) {
    cdn::CdnWorldConfig world;
    world.noise_features = 6;
    cdn::VideoQualityEnv env{world};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(15);
    Trace trace = collect_trace(env, logging, n, rng);
    for (LoggedTuple& t : trace) {
        t.context.categorical.push_back(
            static_cast<std::int32_t>(rng.uniform_index(5)));
        t.context.categorical.push_back(
            static_cast<std::int32_t>(rng.uniform_index(9)));
    }
    return trace;
}

Trace wise_trace(std::size_t n) {
    wise::RequestRoutingEnv env{wise::WiseWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(11);
    return collect_trace(env, logging, n, rng);
}

// All the numbers the contract covers, bitwise-comparable.
std::string fingerprint(const PolicyEvaluation& e) {
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "DM %.17g\nIPS %.17g\nSNIPS %.17g\nDR %.17g\nSWITCH-DR %.17g\n"
        "ESS %.17g\nMEANW %.17g\nMAXW %.17g\nZEROW %.17g\n",
        e.dm.value, e.ips.value, e.snips.value, e.dr.value, e.switch_dr.value,
        e.overlap.effective_sample_size, e.overlap.mean_weight,
        e.overlap.max_weight, e.overlap.zero_weight_fraction);
    std::string out = buffer;
    if (e.dr_ci) {
        std::snprintf(buffer, sizeof(buffer), "DR-CI %.17g %.17g\n",
                      e.dr_ci->lower, e.dr_ci->upper);
        out += buffer;
    }
    return out;
}

PolicyEvaluation stream_over(const TupleSource& source, const Evaluator& ev,
                             const Policy& policy, int ci_replicates,
                             std::uint64_t seed) {
    StreamingOptions options;
    options.ci_replicates = ci_replicates;
    return evaluate_streaming(source, ev.reward_model(), policy, options,
                              stats::Rng(seed));
}

class ThreadCountGuard {
public:
    ThreadCountGuard() : saved_(par::thread_count()) {}
    ~ThreadCountGuard() { par::set_thread_count(saved_); }

private:
    std::size_t saved_;
};

// Streams `trace` from memory and from 1 and 3 shards at 1, 4 and 8
// threads; every run must give the in-memory Evaluator's bits.
void expect_streaming_matches_in_memory(const Trace& trace) {
    EvaluationConfig config;
    config.ci_replicates = 200;
    const Evaluator evaluator(trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());
    const PolicyEvaluation reference = evaluator.evaluate(policy);
    const std::string want = fingerprint(reference);

    const fs::path dir = fs::temp_directory_path() / "dre_test_stream";
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_store_file(trace, (dir / "single.drt").string(),
                     store::StoreWriter::Options{512});
    store::split_store(
        store::ShardedStore({(dir / "single.drt").string()}),
        (dir / "multi-").string(), 3, store::StoreWriter::Options{256});

    // In-memory source first: isolates the streaming arithmetic from I/O.
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        par::set_thread_count(threads);
        const TraceTupleSource source(trace);
        EXPECT_EQ(fingerprint(stream_over(source, evaluator, policy, 200, 7)),
                  want)
            << "TraceTupleSource, threads=" << threads;
    }

    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
        const std::vector<std::string> paths =
            shards == 1 ? std::vector<std::string>{(dir / "single.drt").string()}
                        : store::find_shards((dir / "multi-").string());
        const store::ShardedStore sharded(paths);
        const store::StoreTupleSource source(sharded);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
            par::set_thread_count(threads);
            EXPECT_EQ(
                fingerprint(stream_over(source, evaluator, policy, 200, 7)),
                want)
                << "shards=" << shards << " threads=" << threads;
        }
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(StreamingEvaluation, MatchesInMemoryAcrossThreadsShardsAndBackends) {
    ThreadCountGuard guard;
    expect_streaming_matches_in_memory(cdn_trace(2500));
    SCOPED_TRACE("contexts past the inline capacity");
    expect_streaming_matches_in_memory(wide_cdn_trace(2500));
}

TEST(StreamingEvaluation, WaveSizeNeverAffectsResults) {
    const Trace trace = wise_trace(1800);
    EvaluationConfig config;
    config.ci_replicates = 150;
    const Evaluator evaluator(trace, config, stats::Rng(3));
    const UniformRandomPolicy policy(trace.num_decisions());
    const std::string want = fingerprint(evaluator.evaluate(policy));

    const TraceTupleSource source(trace);
    for (const std::size_t wave : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}, std::size_t{64}}) {
        StreamingOptions options;
        options.ci_replicates = 150;
        options.wave_chunks = wave;
        EXPECT_EQ(fingerprint(evaluate_streaming(source, evaluator.reward_model(),
                                                 policy, options,
                                                 stats::Rng(3))),
                  want)
            << "wave=" << wave;
    }
}

TEST(StreamingEvaluation, NoCiSkipsBootstrapAndMatches) {
    const Trace trace = cdn_trace(900);
    EvaluationConfig config; // ci_replicates = 0
    const Evaluator evaluator(trace, config, stats::Rng(5));
    const UniformRandomPolicy policy(trace.num_decisions());
    const PolicyEvaluation reference = evaluator.evaluate(policy);
    ASSERT_FALSE(reference.dr_ci.has_value());

    const TraceTupleSource source(trace);
    const PolicyEvaluation streamed =
        stream_over(source, evaluator, policy, 0, 5);
    EXPECT_FALSE(streamed.dr_ci.has_value());
    EXPECT_EQ(fingerprint(streamed), fingerprint(reference));
}

TEST(StreamingEvaluation, RejectsBadInputs) {
    const Trace trace = cdn_trace(50);
    EvaluationConfig config;
    const Evaluator evaluator(trace, config, stats::Rng(5));
    const Trace empty;
    const TraceTupleSource empty_source(empty);
    const UniformRandomPolicy policy(trace.num_decisions());
    StreamingOptions options;
    EXPECT_THROW(evaluate_streaming(empty_source, evaluator.reward_model(),
                                    policy, options, stats::Rng(1)),
                 std::invalid_argument);
    // Policy decision space smaller than the source's.
    const UniformRandomPolicy narrow(1);
    const TraceTupleSource source(trace);
    EXPECT_THROW(evaluate_streaming(source, evaluator.reward_model(), narrow,
                                    options, stats::Rng(1)),
                 std::invalid_argument);
}

// The checked-in fingerprint: catches silent numerics drift in either path
// (the paths are already proven equal above, so one fingerprint pins both).
TEST(StreamingEvaluation, GoldenFingerprint) {
    const Trace trace = cdn_trace(2000);
    EvaluationConfig config;
    config.ci_replicates = 300;
    const Evaluator evaluator(trace, config, stats::Rng(42));
    const UniformRandomPolicy policy(trace.num_decisions());
    const PolicyEvaluation reference = evaluator.evaluate(policy);
    const TraceTupleSource source(trace);
    const PolicyEvaluation streamed =
        stream_over(source, evaluator, policy, 300, 42);
    ASSERT_EQ(fingerprint(streamed), fingerprint(reference));

    const std::string golden_path =
        std::string(DRE_TEST_DATA_DIR) + "/store_fingerprint.txt";
    if (std::getenv("DRE_UPDATE_STORE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << golden_path;
        out << fingerprint(streamed);
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path
                    << " (run with DRE_UPDATE_STORE_GOLDEN=1 to create)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(fingerprint(streamed), golden.str())
        << "numerics changed; if intentional, regenerate with "
           "DRE_UPDATE_STORE_GOLDEN=1";
}

// A second pin whose chunk geometry the one above never reaches: 8193
// tuples make chunks of 4096, 4096 and 1 (power-of-two resample sizes,
// where Lemire's draw never rejects, and a single-value chunk), and 1001
// replicates leave one replicate past a multiple of 8. An epsilon-greedy
// target policy gives the DR contributions unequal weights. The literals
// were produced by the per-draw bootstrap loop that the resampling kernel
// replaced.
TEST(StreamingEvaluation, GoldenFingerprintPowerOfTwoChunks) {
    const Trace trace = cdn_trace(8193);
    EvaluationConfig config;
    config.ci_replicates = 1001;
    const Evaluator evaluator(trace, config, stats::Rng(43));
    const auto favourite = std::make_shared<const DeterministicPolicy>(
        trace.num_decisions(), [](const ClientContext&) { return Decision{0}; });
    const EpsilonGreedyPolicy policy(favourite, 0.2);
    const char* const golden =
        "DM 1.4846966115557434\nIPS 1.4478996964458575\n"
        "SNIPS 1.487553258217547\nDR 1.4846966115557434\n"
        "SWITCH-DR 1.4846966115557434\nESS 998.53229413739712\n"
        "MEANW 0.97334309776628025\nMAXW 9.8000000000000025\nZEROW 0\n"
        "DR-CI 1.4802682279393973 1.4891777554442369\n";
    EXPECT_EQ(fingerprint(evaluator.evaluate(policy)), golden);
    const TraceTupleSource source(trace);
    EXPECT_EQ(fingerprint(stream_over(source, evaluator, policy, 1001, 43)),
              golden);
}

// Learned targets. A greedy:<model> policy reads its probabilities off
// its own model's argmax, a path the uniform and epsilon-greedy pins above
// never reach. Each spec runs in memory and streamed against one pinned
// fingerprint: the five estimates, the overlap diagnostics and the DR CI.
struct GreedyGolden {
    const char* spec;
    const char* fingerprint;
};

void expect_greedy_goldens(const Trace& trace, std::uint64_t seed,
                           const std::vector<GreedyGolden>& cases) {
    EvaluationConfig config;
    config.ci_replicates = 200;
    const Evaluator evaluator(trace, config, stats::Rng(seed));
    const TraceTupleSource source(trace);
    for (const GreedyGolden& c : cases) {
        const auto policy =
            parse_policy_spec(c.spec, trace, trace.num_decisions());
        EXPECT_EQ(fingerprint(evaluator.evaluate_seeded(*policy,
                                                        stats::Rng(seed))),
                  c.fingerprint)
            << c.spec << " in memory";
        EXPECT_EQ(
            fingerprint(stream_over(source, evaluator, *policy, 200, seed)),
            c.fingerprint)
            << c.spec << " streamed";
    }
}

TEST(StreamingEvaluation, GreedyGoldenCdnTrace) {
    expect_greedy_goldens(
        cdn_trace(6000), 44,
        {{"greedy:tabular",
          "DM 2.4662633058090928\nIPS 11.760510039057612\n"
          "SNIPS 2.925500009715825\nDR 2.4662633058090928\n"
          "SWITCH-DR 2.4662633058090928\nESS 2010\n"
          "MEANW 4.0199999999999996\nMAXW 12\n"
          "ZEROW 0.66500000000000004\n"
          "DR-CI 2.4555693744363678 2.47873199650624\n"},
         {"greedy:linear:0.1",
          "DM 2.1224064644488876\nIPS 2.6161524060572345\n"
          "SNIPS 2.4404406772922713\nDR 2.1224064644488876\n"
          "SWITCH-DR 2.1224064644488876\nESS 644.28181648295867\n"
          "MEANW 1.072000000000072\nMAXW 10.9\n"
          "ZEROW 0\n"
          "DR-CI 2.1146243340113715 2.1296580578942983\n"}});
}

// Dropping the numeric features makes contexts repeat, so each tabular
// cell averages many rewards and the order of its mean updates shows in
// the last bits.
TEST(StreamingEvaluation, GreedyGoldenCategoricalContexts) {
    Trace trace = cdn_trace(6000);
    for (LoggedTuple& t : trace) t.context.numeric.clear();
    expect_greedy_goldens(
        trace, 45,
        {{"greedy:tabular",
          "DM 2.8176765042173484\nIPS 2.6472954853191091\n"
          "SNIPS 2.757599463874076\nDR 2.8176765042173431\n"
          "SWITCH-DR 2.8176765042173484\nESS 480\n"
          "MEANW 0.95999999999999996\nMAXW 12\n"
          "ZEROW 0.92000000000000004\n"
          "DR-CI 2.7670025756290002 2.8751613459553056\n"},
         {"greedy:linear:0.1",
          "DM 2.38154177577379\nIPS 2.4957916232303967\n"
          "SNIPS 2.4132581930288954\nDR 2.3815417757737922\n"
          "SWITCH-DR 2.3815417757737896\nESS 623.88616204240316\n"
          "MEANW 1.0342000000000655\nMAXW 10.9\n"
          "ZEROW 0\n"
          "DR-CI 2.3229403000383422 2.4366261098869946\n"}});
}

} // namespace
} // namespace dre::core
