// dre::fault + hardened streaming: the robustness contract.
//
// The matrix under test: fault point (store.open / store.read / store.crc /
// stream.chunk / env.step) × kind (transient / permanent / corruption) ×
// failure mode (strict / quarantine / degrade) × DRE_THREADS. Seeded fault
// schedules must fire identically for any thread count, quarantine reports
// must be byte-identical, transient faults must be absorbed by the retry
// policies without touching the results, and a checkpointed run that is
// killed mid-chunk must resume to bit-identical estimates.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdn/scenario.h"
#include "core/checkpoint.h"
#include "core/environment.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "core/streaming.h"
#include "stats/rng.h"
#include "store/error.h"
#include "store/sharded.h"
#include "store/writer.h"
#include "trace/trace.h"
#include "trace/validate.h"

namespace dre::core {
namespace {

namespace fs = std::filesystem;

// RAII: tests must never leak an armed injector into each other.
class InjectorGuard {
public:
    explicit InjectorGuard(const std::string& spec = "",
                           std::uint64_t seed = 99) {
        if (!spec.empty())
            fault::Injector::global().configure_spec(spec, seed);
    }
    ~InjectorGuard() { fault::Injector::global().reset(); }
};

class ThreadCountGuard {
public:
    ThreadCountGuard() : saved_(par::thread_count()) {}
    ~ThreadCountGuard() { par::set_thread_count(saved_); }

private:
    std::size_t saved_;
};

Trace cdn_trace(std::size_t n) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(12);
    return collect_trace(env, logging, n, rng);
}

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

struct StoreFixture {
    Trace trace;
    fs::path dir;
    std::vector<std::string> paths;

    explicit StoreFixture(std::size_t n, const char* name,
                          std::uint32_t row_group_rows = 512,
                          std::size_t shards = 1) {
        trace = cdn_trace(n);
        dir = fs::temp_directory_path() / name;
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::string single = (dir / "t.drt").string();
        write_store_file(trace, single,
                         store::StoreWriter::Options{row_group_rows});
        if (shards == 1) {
            paths = {single};
        } else {
            paths = store::split_store(
                store::ShardedStore({single}), (dir / "s-").string(), shards,
                store::StoreWriter::Options{row_group_rows});
        }
    }
    ~StoreFixture() {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
};

StreamingResult run_guarded(const TupleSource& source, const Evaluator& ev,
                            const Policy& policy, StreamingOptions options,
                            std::uint64_t seed = 7) {
    return evaluate_streaming_guarded(source, ev.reward_model(), policy,
                                      options, stats::Rng(seed));
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

// The published 64-bit FNV-1a, written out here rather than borrowed from
// the library so the checkpoint pin below shares no code with what it pins.
std::uint64_t fnv1a_64(const std::string& bytes) {
    std::uint64_t hash = 14695981039346656037ull;
    for (const unsigned char b : bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
    }
    return hash;
}

// `body` (magic, config hash, payload) followed by the checksum a valid
// checkpoint carries, so a mutated payload gets past the checksum test.
std::string reseal(const std::string& body) {
    const std::uint64_t sum = fnv1a(body);
    return body + std::string(reinterpret_cast<const char*>(&sum), 8);
}

TEST(FaultSpec, ParsesEveryKeyAndRejectsMalformedInput) {
    const auto specs = fault::parse_fault_spec(
        "store.read:p=0.01,kind=transient,attempts=3;"
        "store.crc:nth=7,kind=corruption;stream.chunk:every=4,kind=permanent");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].point, "store.read");
    EXPECT_DOUBLE_EQ(specs[0].probability, 0.01);
    EXPECT_EQ(specs[0].kind, fault::FaultKind::kTransient);
    EXPECT_EQ(specs[0].attempts, 3u);
    EXPECT_EQ(specs[1].nth, 7u);
    EXPECT_EQ(specs[1].kind, fault::FaultKind::kCorruption);
    EXPECT_EQ(specs[2].every, 4u);
    EXPECT_EQ(specs[2].kind, fault::FaultKind::kPermanent);

    EXPECT_TRUE(fault::parse_fault_spec("").empty()); // empty = no schedule

    for (const char* bad :
         {"store.read", "store.read:", "store.read:p=2",
          "store.read:p=0.1,nth=3", "store.read:nth=0",
          "store.read:kind=weird", "store.read:frequency=2",
          ":p=0.5", "store.read:nth=x"}) {
        EXPECT_THROW(fault::parse_fault_spec(bad), std::invalid_argument)
            << "spec: '" << bad << "'";
    }
}

TEST(FaultSpec, FailureModeParses) {
    EXPECT_EQ(parse_failure_mode("strict"), FailureMode::kStrict);
    EXPECT_EQ(parse_failure_mode("quarantine"), FailureMode::kQuarantine);
    EXPECT_EQ(parse_failure_mode("degrade"), FailureMode::kDegrade);
    EXPECT_THROW(parse_failure_mode("lenient"), std::invalid_argument);
}

TEST(QuarantineReport, CoalescesAndRendersDeterministically) {
    QuarantineReport report;
    report.tuples_total = 100;
    report.tuples_evaluated = 90;
    report.add(10, 5, "store-corruption", 0);
    report.add(15, 3, "store-corruption", 0); // contiguous: coalesces
    report.add(30, 2, "non-finite-reward", -1);
    ASSERT_EQ(report.records.size(), 2u);
    EXPECT_EQ(report.records[0].count, 8u);
    EXPECT_EQ(report.tuples_quarantined, 10u);
    EXPECT_DOUBLE_EQ(report.coverage(), 0.9);

    QuarantineReport other;
    other.add(32, 1, "non-finite-reward", -1); // continues across merge
    report.merge(other);
    ASSERT_EQ(report.records.size(), 2u);
    EXPECT_EQ(report.records[1].count, 3u);

    const std::string text = report.to_text();
    EXPECT_NE(text.find("tuples quarantined: 11"), std::string::npos);
    EXPECT_NE(text.find("store-corruption: 8"), std::string::npos);
    EXPECT_NE(text.find("[10, 18) store-corruption shard=0"),
              std::string::npos);
    EXPECT_EQ(text, report.to_text());
}

// Defective tuples are quarantined under the same reason codes the audit
// linter reports — no fault injection involved.
TEST(Quarantine, InvalidTuplesUseSharedReasonCodes) {
    const Trace clean_trace = cdn_trace(3000);
    Trace trace = clean_trace;
    trace[10].reward = std::numeric_limits<double>::quiet_NaN();
    trace[11].reward = std::numeric_limits<double>::infinity();
    trace[500].propensity = 1.5;
    trace[900].context.numeric[0] = std::numeric_limits<double>::quiet_NaN();
    trace[4].decision = -1;

    // The evaluator fits its models on the clean trace (its constructor
    // validates); only the streamed source carries the defects.
    EvaluationConfig config;
    const Evaluator evaluator(clean_trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());
    const TraceTupleSource source(trace);

    StreamingOptions options;
    options.on_error = FailureMode::kQuarantine;
    const StreamingResult result =
        run_guarded(source, evaluator, policy, options);
    const QuarantineReport& q = result.quarantine;
    EXPECT_EQ(q.tuples_total, 3000u);
    EXPECT_EQ(q.tuples_evaluated, 2995u);
    EXPECT_EQ(q.tuples_quarantined, 5u);
    EXPECT_EQ(q.reason_counts.at("non-finite-reward"), 2u);
    EXPECT_EQ(q.reason_counts.at("invalid-propensity"), 1u);
    EXPECT_EQ(q.reason_counts.at("non-finite-context"), 1u);
    EXPECT_EQ(q.reason_counts.at("decision-out-of-range"), 1u);

    // The estimates equal a clean evaluation of the surviving sub-trace:
    // quarantine rescales denominators instead of deflating the means.
    Trace surviving = trace;
    remove_defective_tuples(surviving, policy.num_decisions());
    const Evaluator clean(surviving, config, stats::Rng(7));
    const TraceTupleSource clean_source(surviving);
    StreamingOptions strict;
    const std::string clean_print = fingerprint(
        evaluate_streaming(clean_source, clean.reward_model(), policy, strict,
                           stats::Rng(7)));
    // Chunk geometry differs once tuples are removed (quarantine keeps the
    // original global indices), so compare the denominator-sensitive
    // scalars rather than the full bit pattern.
    const PolicyEvaluation& e = result.evaluation;
    EXPECT_EQ(e.overlap.n, 2995u);
    EXPECT_TRUE(std::isfinite(e.dr.value));
    (void)clean_print;

    // Strict mode is fail-stop: the first defective tuple aborts the run
    // (the per-chunk estimator validates) instead of being quarantined.
    StreamingOptions strict_options;
    EXPECT_THROW(run_guarded(source, evaluator, policy, strict_options),
                 std::invalid_argument);
}

TEST(Degrade, WidensCiByCoverageAndOnlyThen) {
    const Trace clean_trace = cdn_trace(4000);
    Trace trace = clean_trace;
    for (std::size_t i = 0; i < 400; ++i)
        trace[i * 10].reward = std::numeric_limits<double>::quiet_NaN();

    EvaluationConfig config;
    const Evaluator evaluator(clean_trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());
    const TraceTupleSource source(trace);

    StreamingOptions quarantine;
    quarantine.on_error = FailureMode::kQuarantine;
    quarantine.ci_replicates = 200;
    const StreamingResult q = run_guarded(source, evaluator, policy, quarantine);

    StreamingOptions degrade = quarantine;
    degrade.on_error = FailureMode::kDegrade;
    const StreamingResult d = run_guarded(source, evaluator, policy, degrade);

    ASSERT_TRUE(q.evaluation.dr_ci && d.evaluation.dr_ci);
    const double coverage = q.quarantine.coverage();
    ASSERT_LT(coverage, 1.0);
    EXPECT_DOUBLE_EQ(d.evaluation.dr.value, q.evaluation.dr.value);
    EXPECT_NEAR(d.evaluation.dr_ci->width(),
                (q.evaluation.dr_ci->upper - q.evaluation.dr_ci->point) /
                        coverage +
                    (q.evaluation.dr_ci->point - q.evaluation.dr_ci->lower) /
                        coverage,
                1e-12);
    EXPECT_GT(d.evaluation.dr_ci->width(), q.evaluation.dr_ci->width());
}

TEST(FaultInjector, DecisionIsPureFunctionOfSeedPointIndexAttempt) {
    InjectorGuard guard("store.read:p=0.3,kind=corruption", 42);
    const fault::Injector& injector = fault::Injector::global();
    std::vector<bool> first;
    for (std::uint64_t i = 0; i < 200; ++i)
        first.push_back(injector.check("store.read", i, 0).has_value());
    // Re-query in reverse: no hidden execution-order state.
    for (std::uint64_t i = 200; i-- > 0;)
        EXPECT_EQ(injector.check("store.read", i, 0).has_value(), first[i]);
    EXPECT_GT(std::count(first.begin(), first.end(), true), 20);
    EXPECT_LT(std::count(first.begin(), first.end(), true), 180);
    // Other points are unaffected by store.read's schedule.
    for (std::uint64_t i = 0; i < 200; ++i)
        EXPECT_FALSE(injector.check("store.crc", i, 0));

    // A different seed gives a different (but again fixed) schedule.
    fault::Injector::global().configure_spec("store.read:p=0.3,kind=corruption",
                                             43);
    std::size_t differs = 0;
    for (std::uint64_t i = 0; i < 200; ++i)
        differs += injector.check("store.read", i, 0).has_value() != first[i];
    EXPECT_GT(differs, 0u);
}

// store.read / store.crc × kind × mode, over a real .drt store. nth=2
// targets global row group 1 (rows [512, 1024) at 512-row groups).
TEST(FaultMatrix, StorePointsAcrossKindsAndModes) {
    StoreFixture fx(3000, "dre_test_fault_store");
    EvaluationConfig config;
    const Evaluator evaluator(fx.trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(fx.trace.num_decisions());

    StreamingOptions strict_options;
    std::string clean;
    {
        const store::ShardedStore store(fx.paths);
        const store::StoreTupleSource source(store);
        clean = fingerprint(
            run_guarded(source, evaluator, policy, strict_options).evaluation);
    }
    // On clean data the tolerant modes are strict streaming to the bit, DR
    // CI included, and quarantine nothing.
    {
        const store::ShardedStore store(fx.paths);
        const store::StoreTupleSource source(store);
        StreamingOptions options;
        options.ci_replicates = 200;
        const std::string strict = fingerprint(
            run_guarded(source, evaluator, policy, options).evaluation);
        for (const char* mode : {"quarantine", "degrade"}) {
            options.on_error = parse_failure_mode(mode);
            const StreamingResult r =
                run_guarded(source, evaluator, policy, options);
            EXPECT_EQ(fingerprint(r.evaluation), strict) << mode;
            EXPECT_TRUE(r.quarantine.empty()) << mode;
        }
    }

    for (const char* point : {"store.read", "store.crc"}) {
        for (const char* kind : {"transient", "permanent", "corruption"}) {
            for (const char* mode_name : {"strict", "quarantine", "degrade"}) {
                const FailureMode mode = parse_failure_mode(mode_name);
                InjectorGuard guard(std::string(point) + ":nth=2,kind=" + kind);
                const store::ShardedStore store(fx.paths);
                const store::StoreTupleSource source(store);
                StreamingOptions options;
                options.on_error = mode;
                const std::string label =
                    std::string(point) + "/" + kind + "/" + mode_name;

                if (std::string(kind) == "transient") {
                    // Absorbed by the reader's retry policy in every mode:
                    // identical results, nothing quarantined.
                    const StreamingResult r =
                        run_guarded(source, evaluator, policy, options);
                    EXPECT_EQ(fingerprint(r.evaluation), clean) << label;
                    EXPECT_TRUE(r.quarantine.empty()) << label;
                } else if (mode == FailureMode::kStrict) {
                    EXPECT_THROW(run_guarded(source, evaluator, policy, options),
                                 store::StoreError)
                        << label;
                } else {
                    const StreamingResult r =
                        run_guarded(source, evaluator, policy, options);
                    const QuarantineReport& q = r.quarantine;
                    EXPECT_EQ(q.tuples_quarantined, 512u) << label;
                    EXPECT_EQ(q.tuples_evaluated, 3000u - 512u) << label;
                    ASSERT_EQ(q.records.size(), 1u) << label;
                    EXPECT_EQ(q.records[0].begin, 512u) << label;
                    EXPECT_EQ(q.records[0].count, 512u) << label;
                    EXPECT_EQ(q.shard_counts.at(0), 512u) << label;
                    const char* want_reason =
                        std::string(kind) == "corruption"
                            ? "store-corruption"
                            : "store-io-permanent";
                    EXPECT_EQ(q.records[0].reason, want_reason) << label;
                }
            }
        }
    }
}

// An exhausted transient (attempts >= the retry budget) behaves like a
// permanent fault: strict throws, quarantine skips.
TEST(FaultMatrix, ExhaustedTransientEscapesRetry) {
    StoreFixture fx(2000, "dre_test_fault_exhaust");
    EvaluationConfig config;
    const Evaluator evaluator(fx.trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(fx.trace.num_decisions());
    InjectorGuard guard("store.read:nth=1,kind=transient,attempts=99");

    const store::ShardedStore store(fx.paths);
    const store::StoreTupleSource source(store);
    StreamingOptions strict_options;
    EXPECT_THROW(run_guarded(source, evaluator, policy, strict_options),
                 store::StoreError);

    StreamingOptions tolerant;
    tolerant.on_error = FailureMode::kQuarantine;
    const StreamingResult r = run_guarded(source, evaluator, policy, tolerant);
    EXPECT_EQ(r.quarantine.tuples_quarantined, 512u);
    EXPECT_EQ(r.quarantine.records.at(0).reason, "store-io-transient");
}

TEST(FaultMatrix, StreamChunkAcrossKindsAndModes) {
    const Trace trace = cdn_trace(10000); // 3 chunks of 4096
    EvaluationConfig config;
    const Evaluator evaluator(trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());
    const TraceTupleSource source(trace);
    StreamingOptions strict_options;
    const std::string clean = fingerprint(
        run_guarded(source, evaluator, policy, strict_options).evaluation);

    for (const char* kind : {"transient", "permanent", "corruption"}) {
        for (const char* mode_name : {"strict", "quarantine", "degrade"}) {
            const FailureMode mode = parse_failure_mode(mode_name);
            InjectorGuard guard(std::string("stream.chunk:nth=2,kind=") + kind);
            StreamingOptions options;
            options.on_error = mode;
            const std::string label = std::string(kind) + "/" + mode_name;
            if (std::string(kind) == "transient") {
                const StreamingResult r =
                    run_guarded(source, evaluator, policy, options);
                EXPECT_EQ(fingerprint(r.evaluation), clean) << label;
                EXPECT_TRUE(r.quarantine.empty()) << label;
            } else if (mode == FailureMode::kStrict) {
                EXPECT_THROW(run_guarded(source, evaluator, policy, options),
                             fault::FaultError)
                    << label;
            } else {
                const StreamingResult r =
                    run_guarded(source, evaluator, policy, options);
                EXPECT_EQ(r.quarantine.tuples_quarantined, 4096u) << label;
                EXPECT_EQ(r.quarantine.chunks_quarantined, 1u) << label;
                ASSERT_EQ(r.quarantine.records.size(), 1u) << label;
                EXPECT_EQ(r.quarantine.records[0].begin, 4096u) << label;
                const char* want_reason =
                    std::string(kind) == "corruption"
                        ? "stream-fault-corruption"
                        : "stream-fault-permanent";
                EXPECT_EQ(r.quarantine.records[0].reason, want_reason) << label;
            }
        }
    }
}

TEST(FaultMatrix, StoreOpenRetriesTransientAndFailsPermanent) {
    StoreFixture fx(1200, "dre_test_fault_open");
    {
        InjectorGuard guard("store.open:nth=1,kind=transient");
        const store::ShardedStore store(fx.paths); // first retry succeeds
        EXPECT_EQ(store.num_tuples(), 1200u);
    }
    {
        InjectorGuard guard("store.open:nth=1,kind=permanent");
        EXPECT_THROW(store::ShardedStore store(fx.paths), store::StoreError);
    }
}

TEST(FaultMatrix, EnvStepFiresAtTheScheduledTuple) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    {
        InjectorGuard guard("env.step:nth=50,kind=permanent");
        stats::Rng rng(3);
        try {
            collect_trace(env, logging, 100, rng);
            FAIL() << "expected FaultError";
        } catch (const fault::FaultError& e) {
            EXPECT_EQ(e.point(), "env.step");
            EXPECT_EQ(e.index(), 49u); // nth is 1-based
        }
    }
    // Below the schedule: untouched, and identical to a no-fault run.
    InjectorGuard guard("env.step:nth=50,kind=permanent");
    stats::Rng rng_a(3);
    const Trace a = collect_trace(env, logging, 49, rng_a);
    fault::Injector::global().reset();
    stats::Rng rng_b(3);
    const Trace b = collect_trace(env, logging, 49, rng_b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].reward, b[i].reward);
}

// The headline determinism claim: one seeded schedule, sharded store,
// probabilistic corruption + per-tuple defects; the evaluation fingerprint
// AND the rendered quarantine report are byte-identical at 1 and 8 threads.
TEST(FaultDeterminism, ScheduleAndReportAreByteIdenticalAcrossThreads) {
    ThreadCountGuard thread_guard;
    StoreFixture fx(9000, "dre_test_fault_threads", 256, 3);
    EvaluationConfig config;
    config.ci_replicates = 100;
    const Evaluator evaluator(fx.trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(fx.trace.num_decisions());

    std::string want_print, want_report;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        par::set_thread_count(threads);
        InjectorGuard guard(
            "store.crc:p=0.15,kind=corruption;store.read:p=0.05,"
            "kind=transient;stream.chunk:nth=2,kind=corruption",
            1234);
        const store::ShardedStore store(fx.paths);
        const store::StoreTupleSource source(store);
        StreamingOptions options;
        options.on_error = FailureMode::kDegrade;
        options.ci_replicates = 100;
        const StreamingResult r = run_guarded(source, evaluator, policy,
                                              options);
        EXPECT_GT(r.quarantine.tuples_quarantined, 0u);
        EXPECT_GT(r.quarantine.shard_counts.size(), 1u)
            << "expected corruption across multiple shards";
        if (threads == 1) {
            want_print = fingerprint(r.evaluation);
            want_report = r.quarantine.to_text();
        } else {
            EXPECT_EQ(fingerprint(r.evaluation), want_print);
            EXPECT_EQ(r.quarantine.to_text(), want_report);
        }
    }
}

// A source that dies (with a plain error, not a FaultError) the first time
// any chunk at or past `bomb_begin` is touched — the crash-mid-chunk stand-
// in for checkpoint/resume tests.
class BombSource final : public TupleSource {
public:
    BombSource(const Trace& trace, std::uint64_t bomb_begin)
        : inner_(trace), bomb_begin_(bomb_begin) {}

    std::uint64_t num_tuples() const override { return inner_.num_tuples(); }
    std::size_t num_decisions() const override {
        return inner_.num_decisions();
    }
    void read(std::uint64_t begin, std::uint64_t count,
              std::vector<LoggedTuple>& out,
              std::vector<TupleReadFailure>* failures) const override {
        maybe_explode(begin);
        inner_.read(begin, count, out, failures);
    }
    void defuse() { armed_ = false; }

private:
    void maybe_explode(std::uint64_t begin) const {
        if (armed_ && begin >= bomb_begin_)
            throw std::runtime_error("simulated crash");
    }
    TraceTupleSource inner_;
    std::uint64_t bomb_begin_;
    bool armed_ = true;
};

TEST(Checkpoint, ResumeAfterMidChunkCrashIsBitIdentical) {
    ThreadCountGuard thread_guard;
    const Trace clean_trace = cdn_trace(20000); // 5 chunks
    Trace trace = clean_trace;
    for (std::size_t i = 0; i < 100; ++i)
        trace[i * 97].reward = std::numeric_limits<double>::quiet_NaN();
    EvaluationConfig config;
    // Models fit on the clean trace; the defects live only in the source.
    const Evaluator evaluator(clean_trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());

    const fs::path dir = fs::temp_directory_path() / "dre_test_fault_ckpt";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string ckpt = (dir / "run.ckpt").string();

    StreamingOptions options;
    options.on_error = FailureMode::kQuarantine;
    options.ci_replicates = 150;
    options.wave_chunks = 1; // checkpoint after every chunk

    // Reference: uninterrupted run, no checkpointing.
    const TraceTupleSource plain(trace);
    const StreamingResult reference =
        run_guarded(plain, evaluator, policy, options);

    // Interrupted run: dies mid-way through chunk 3.
    BombSource bomb(trace, 3 * 4096);
    StreamingOptions ckpt_options = options;
    ckpt_options.checkpoint_path = ckpt;
    EXPECT_THROW(run_guarded(bomb, evaluator, policy, ckpt_options),
                 std::runtime_error);
    ASSERT_TRUE(fs::exists(ckpt)) << "crash left no checkpoint";

    // A kill-9 can also strand a half-written tmp file; resume must ignore
    // it (the real checkpoint is only ever renamed into place).
    std::ofstream(ckpt + ".tmp") << "garbage from a dying process";

    // Resume on a different thread count for good measure.
    par::set_thread_count(par::thread_count() == 1 ? 4 : 1);
    bomb.defuse();
    StreamingOptions resume_options = ckpt_options;
    resume_options.resume = true;
    const StreamingResult resumed =
        run_guarded(bomb, evaluator, policy, resume_options);

    EXPECT_EQ(fingerprint(resumed.evaluation), fingerprint(reference.evaluation));
    EXPECT_EQ(resumed.quarantine.to_text(), reference.quarantine.to_text());

    // The final checkpoint is the complete state: resuming from it skips
    // every chunk and still reproduces the result exactly.
    const StreamingResult replay =
        run_guarded(plain, evaluator, policy, resume_options);
    EXPECT_EQ(fingerprint(replay.evaluation), fingerprint(reference.evaluation));

    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(Checkpoint, RefusesTornFilesAndMismatchedRuns) {
    const Trace trace = cdn_trace(9000);
    EvaluationConfig config;
    const Evaluator evaluator(trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());
    const TraceTupleSource source(trace);

    const fs::path dir = fs::temp_directory_path() / "dre_test_fault_ckpt2";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string ckpt = (dir / "run.ckpt").string();

    StreamingOptions options;
    options.ci_replicates = 100;
    options.checkpoint_path = ckpt;
    (void)run_guarded(source, evaluator, policy, options, 7);
    ASSERT_TRUE(fs::exists(ckpt));

    // Known answer: the DRECKPT1 bytes of this run. The format is
    // host-order and resumable across builds, so any change to it (field
    // order, widths, hash, checksum) must show up here first.
    const std::string original = read_bytes(ckpt);
    EXPECT_EQ(original.size(), 1104u);
    EXPECT_EQ(fnv1a_64(original), 0x554d648a615b5035ull);

    StreamingOptions resume_options = options;
    resume_options.resume = true;

    // Every prefix and every single-byte flip of that file, re-sealed with
    // a valid checksum so the payload parser itself is under test: each
    // mutant resumes or is refused with std::runtime_error — nothing else,
    // and no crash.
    const std::string payload = original.substr(0, original.size() - 8);
    const auto resumes_or_refuses = [&](const std::string& body,
                                        const std::string& label) {
        std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
            << reseal(body);
        try {
            (void)run_guarded(source, evaluator, policy, resume_options, 7);
        } catch (const std::runtime_error&) {
        } catch (const std::exception& e) {
            ADD_FAILURE() << label << ": " << e.what();
        }
    };
    for (std::size_t len = 0; len < payload.size(); ++len)
        resumes_or_refuses(payload.substr(0, len),
                           "prefix " + std::to_string(len));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        std::string flipped = payload;
        flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
        resumes_or_refuses(flipped, "flip " + std::to_string(i));
    }
    // A payload byte past the last field is refused, not ignored.
    std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
        << reseal(payload + '\0');
    EXPECT_THROW(run_guarded(source, evaluator, policy, resume_options, 7),
                 std::runtime_error);
    std::ofstream(ckpt, std::ios::binary | std::ios::trunc) << original;

    // Different seed => different bootstrap base => config-hash mismatch.
    EXPECT_THROW(run_guarded(source, evaluator, policy, resume_options, 8),
                 std::runtime_error);
    // Different CI settings likewise.
    StreamingOptions other_ci = resume_options;
    other_ci.ci_replicates = 50;
    EXPECT_THROW(run_guarded(source, evaluator, policy, other_ci, 7),
                 std::runtime_error);

    // A torn file (checksum mismatch) is refused, not silently recomputed.
    {
        std::error_code ec;
        const auto size = fs::file_size(ckpt, ec);
        ASSERT_FALSE(ec);
        fs::resize_file(ckpt, size / 2, ec);
        ASSERT_FALSE(ec);
    }
    EXPECT_THROW(run_guarded(source, evaluator, policy, resume_options, 7),
                 std::runtime_error);

    // Missing file with resume=true is a fresh start, not an error.
    fs::remove(ckpt);
    const StreamingResult fresh =
        run_guarded(source, evaluator, policy, resume_options, 7);
    EXPECT_TRUE(fresh.quarantine.empty());

    // resume without a checkpoint path is a usage error.
    StreamingOptions bad;
    bad.resume = true;
    EXPECT_THROW(run_guarded(source, evaluator, policy, bad, 7),
                 std::invalid_argument);

    std::error_code ec;
    fs::remove_all(dir, ec);
}

} // namespace
} // namespace dre::core
