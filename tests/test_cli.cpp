// End-to-end smoke tests of the dre_eval CLI against a generated trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "core/environment.h"
#include "core/policy.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "stats/rng.h"
#include "trace/csv.h"

#if !defined(DRE_EVAL_PATH) || !defined(DRE_SIMULATE_PATH) ||              \
    !defined(DRE_TUNE_PATH) || !defined(DRE_SERVE_PATH) ||                 \
    !defined(DRE_LOADGEN_PATH) || !defined(DRE_TOP_PATH)
#error "the build must define the DRE_*_PATH of every tool"
#endif

namespace dre {
namespace {

class CliEnv final : public core::Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(0.0, 1.0)},
                             {static_cast<std::int32_t>(rng.uniform_index(3))});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return (d == c.categorical[0] ? 1.0 : 0.0) + rng.normal(0.0, 0.1);
    }
    std::size_t num_decisions() const noexcept override { return 3; }
};

std::string fixture_csv() {
    static const std::string path = [] {
        CliEnv env;
        stats::Rng rng(1);
        core::UniformRandomPolicy logging(3);
        const Trace trace = core::collect_trace(env, logging, 600, rng);
        const std::string p = testing::TempDir() + "dre_cli_fixture.csv";
        write_csv_file(trace, p);
        return p;
    }();
    return path;
}

int run_cli(const std::string& args) {
    const std::string command = std::string(DRE_EVAL_PATH) + " " + args +
                                " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WEXITSTATUS(status);
}

// Like run_cli but with an environment prefix (e.g. "DRE_THREADS=8") and
// stderr captured to a file so tests can assert on the error: line.
int run_cli_env(const std::string& env, const std::string& args,
                const std::string& stderr_path,
                const char* binary = DRE_EVAL_PATH) {
    const std::string command = env + " " + std::string(binary) + " " +
                                args + " > /dev/null 2> " + stderr_path;
    const int status = std::system(command.c_str());
    return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// A .drt copy of the CSV fixture with small row groups, so fault points
// that address row groups have several indices to hit.
std::string fixture_drt() {
    static const std::string path = [] {
        const std::string p = testing::TempDir() + "dre_cli_fixture.drt";
        const int rc = run_cli("convert " + fixture_csv() + " " + p +
                               " --row-group-rows 128");
        if (rc != 0) ADD_FAILURE() << "convert exited " << rc;
        return p;
    }();
    return path;
}

TEST(Cli, EvaluatesConstantPolicy) {
    EXPECT_EQ(run_cli(fixture_csv() + " constant:1 --ci 200"), 0);
}

TEST(Cli, EvaluatesUniformAndGreedyPolicies) {
    EXPECT_EQ(run_cli(fixture_csv() + " uniform"), 0);
    EXPECT_EQ(run_cli(fixture_csv() + " greedy:tabular --cross-fit"), 0);
    EXPECT_EQ(run_cli(fixture_csv() + " greedy:linear --model linear"), 0);
}

TEST(Cli, SupportsQuantileAndPropensityFlags) {
    EXPECT_EQ(run_cli(fixture_csv() +
                      " constant:0 --estimate-propensities --quantile 0.9"),
              0);
}

TEST(Cli, SupportsDriftCheck) {
    EXPECT_EQ(run_cli(fixture_csv() + " uniform --check-drift"), 0);
}

TEST(Cli, SupportsPerGroupBreakdown) {
    EXPECT_EQ(run_cli(fixture_csv() + " uniform --by-group 0"), 0);
    EXPECT_NE(run_cli(fixture_csv() + " uniform --by-group 9"), 0);
}

TEST(Cli, SupportsAudit) {
    EXPECT_EQ(run_cli(fixture_csv() + " uniform --audit"), 0);
}

TEST(Cli, SupportsLiftCertification) {
    // greedy model policy vs a constant incumbent; just exercises the
    // --compare path end to end (verdict content is covered by
    // test_policy_learning).
    EXPECT_EQ(run_cli(fixture_csv() + " greedy:tabular --compare constant:0"), 0);
    EXPECT_EQ(run_cli(fixture_csv() + " uniform --compare uniform"), 0);
}

// --obs-out writes the registry as the OpenMetrics text /metrics serves:
// the file parses back and holds the evaluation's counter and span.
TEST(Cli, ObsOutWritesTheOpenMetricsExposition) {
    const std::string out = testing::TempDir() + "dre_cli_obs.txt";
    std::remove(out.c_str());
    ASSERT_EQ(run_cli(fixture_csv() + " uniform --obs-out " + out), 0);
    const obs::Scrape scrape = obs::parse_openmetrics(slurp(out));
    EXPECT_GT(scrape.counters.at("dre_evaluator_tuples_evaluated"), 0u);
    EXPECT_GT(scrape.histograms.at("dre_span_evaluator_evaluate_ns").count,
              0u);
}

TEST(Cli, SimulateThenEvaluatePipeline) {
    const std::string csv = testing::TempDir() + "dre_cli_sim.csv";
    const std::string simulate = std::string(DRE_SIMULATE_PATH) + " cdn " + csv +
                                 " --n 400 --seed 3 > /dev/null 2>&1";
    ASSERT_EQ(WEXITSTATUS(std::system(simulate.c_str())), 0);
    EXPECT_EQ(run_cli(csv + " uniform"), 0);
    EXPECT_EQ(run_cli(csv + " greedy:tabular"), 0);

    const std::string bad = std::string(DRE_SIMULATE_PATH) +
                            " alien /tmp/x.csv > /dev/null 2>&1";
    EXPECT_NE(WEXITSTATUS(std::system(bad.c_str())), 0);
}

TEST(Cli, RejectsBadInvocations) {
    EXPECT_NE(run_cli(""), 0);                                   // no args
    EXPECT_NE(run_cli("/nonexistent.csv constant:0"), 0);        // bad file
    EXPECT_NE(run_cli(fixture_csv() + " constant:99"), 0);       // bad decision
    EXPECT_NE(run_cli(fixture_csv() + " nonsense"), 0);          // bad spec
    EXPECT_NE(run_cli(fixture_csv() + " uniform --model alien"), 0);
}

// Exit codes partition failures: 2 = bad arguments, 3 = bad input. The
// distinction is what lets a retry wrapper tell "fix the command line"
// apart from "the trace is damaged".
TEST(Cli, ExitCodesDistinguishArgumentAndInputErrors) {
    EXPECT_EQ(run_cli(fixture_csv() + " uniform --alien-flag"), 2);
    EXPECT_EQ(run_cli(fixture_csv() + " uniform --fault-spec bogus"), 2);
    EXPECT_EQ(run_cli(fixture_csv() +
                      " uniform --fault-spec store.read:kind=martian"),
              2);
    // Streaming-only flags without --streaming are usage errors.
    EXPECT_EQ(run_cli(fixture_drt() + " uniform --on-error quarantine"), 2);
    EXPECT_EQ(run_cli(fixture_drt() + " uniform --resume --checkpoint " +
                      testing::TempDir() + "dre_cli_nock.bin"),
              2);
    // So is --fit-sample, and an empty fit sample could fit nothing; both
    // print one error line naming the flag.
    const std::string err = testing::TempDir() + "dre_cli_fit_err.txt";
    for (const std::string& args :
         {fixture_drt() + " uniform --streaming --fit-sample 0",
          fixture_drt() + " uniform --fit-sample 5"}) {
        EXPECT_EQ(run_cli_env("", args, err), 2) << args;
        const std::string text = slurp(err);
        EXPECT_EQ(text.rfind("error: --fit-sample ", 0), 0u) << text;
        EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
    }
    // Missing / unreadable input is an input error, not a usage error.
    EXPECT_EQ(run_cli("/nonexistent.csv uniform"), 3);
    EXPECT_EQ(run_cli("/nonexistent-prefix- uniform --streaming"), 3);
    // dre_simulate classifies the same way: an unknown scenario and an
    // empty trace are usage errors, an output it cannot write is an I/O
    // error.
    const std::string out = testing::TempDir() + "dre_cli_sim_exit.csv";
    for (const auto& [args, code] :
         {std::pair<std::string, int>{"alien " + out, 2},
          {"cdn " + out + " --n 0", 2},
          {"cdn " + testing::TempDir() + "no-such-dir/trace.csv --n 10", 3}}) {
        EXPECT_EQ(run_cli_env("", args, err, DRE_SIMULATE_PATH), code) << args;
        const std::string text = slurp(err);
        EXPECT_EQ(text.rfind("error: ", 0), 0u) << args << ": " << text;
        EXPECT_EQ(text.find('\n'), text.size() - 1) << args << ": " << text;
    }
}

// Load-path validation: defective tuples are rejected at read time with
// the same reason codes the audit linter and QuarantineReport use.
TEST(Cli, RejectsDefectiveTraceWithSharedReasonCodes) {
    CliEnv env;
    stats::Rng rng(2);
    core::UniformRandomPolicy logging(3);
    Trace trace = core::collect_trace(env, logging, 50, rng);
    trace[7].reward = std::numeric_limits<double>::quiet_NaN();
    const std::string p = testing::TempDir() + "dre_cli_defective.csv";
    write_csv_file(trace, p);
    const std::string err = testing::TempDir() + "dre_cli_deferr.txt";
    EXPECT_EQ(run_cli_env("", p + " uniform", err), 3);
    EXPECT_NE(slurp(err).find("non-finite-reward"), std::string::npos);
}

// dre_eval --ci and dre_tune --replicates take 0 or
// 2..stats::kMaxBootstrapReplicates; a negative, a lone replicate, an
// out-of-range or a non-numeric count is a usage error that names the
// flag, never a silent run without a CI or with a truncated count.
TEST(Cli, RejectsReplicateCountsOutsideTheBound) {
    const std::string err = testing::TempDir() + "dre_cli_ci_err.txt";
    const struct {
        const char* binary;
        std::string args;
        const char* flag;
    } tools[] = {
        {DRE_EVAL_PATH, fixture_csv() + " uniform", "--ci"},
        {DRE_TUNE_PATH,
         fixture_csv() + " --offline --constants --wave-size 100",
         "--replicates"},
    };
    for (const auto& tool : tools) {
        const std::string base = tool.args + " " + tool.flag + " ";
        for (const char* count : {"-3", "1", "100001", "4294967295",
                                  "99999999999", "99999999999999999999",
                                  "12x", ""}) {
            EXPECT_EQ(run_cli_env("", base + "'" + count + "'", err,
                                  tool.binary),
                      2)
                << tool.flag << " '" << count << "'";
            EXPECT_NE(slurp(err).find(tool.flag), std::string::npos)
                << slurp(err);
        }
        EXPECT_EQ(run_cli_env("", base + "0", err, tool.binary), 0)
            << slurp(err);
        EXPECT_EQ(run_cli_env("", base + "2", err, tool.binary), 0)
            << slurp(err);
    }
}

// Every numeric flag of the six tools reads its whole token with one
// checked parser: trailing text, an exponent on an integer, a sign on an
// unsigned value, a non-finite number, a value outside the destination
// type or outside the flag's own interval (a probability, quantile, CI
// level, fraction or weight) exits 2 with one error line naming the flag,
// before any work —
// dre_serve before it binds, so no port file appears. The commands run
// under `timeout` so a server that wrongly starts fails the row instead
// of hanging the suite.
TEST(Cli, RejectsMalformedNumericFlags) {
    const std::string dir = testing::TempDir();
    const std::string err = dir + "dre_cli_flag_err.txt";
    const std::string port_file = dir + "dre_cli_flag_port.txt";
    const std::string eval = fixture_csv() + " uniform";
    const std::string convert =
        "convert " + fixture_csv() + " " + dir + "dre_cli_flag.drt";
    const std::string simulate = "cdn " + dir + "dre_cli_flag.csv";
    const std::string tune = fixture_csv() + " --offline --constants";
    const std::string tune_online = fixture_csv() + " --constants";
    const std::string serve = "--port-file " + port_file;
    const std::string loadgen = "--port 1 " + eval;
    const struct {
        const char* binary;
        std::string args;
        const char* flag;
        const char* value;
    } rows[] = {
        {DRE_EVAL_PATH, eval, "--seed", "-1"},
        {DRE_EVAL_PATH, eval, "--seed", "18446744073709551616"},
        {DRE_EVAL_PATH, eval, "--fit-sample", "1e3"},
        {DRE_EVAL_PATH, eval, "--quantile", "0.9x"},
        {DRE_EVAL_PATH, eval, "--quantile", "-0.1"},
        {DRE_EVAL_PATH, eval, "--quantile", "1.5"},
        {DRE_EVAL_PATH, eval, "--by-group", "-1"},
        {DRE_EVAL_PATH, convert, "--shards", "3x"},
        {DRE_EVAL_PATH, convert, "--row-group-rows", "4294967296"},
        {DRE_SIMULATE_PATH, simulate, "--n", "1e3"},
        {DRE_SIMULATE_PATH, simulate, "--n", "300x"},
        {DRE_SIMULATE_PATH, simulate, "--seed", " 7"},
        {DRE_SIMULATE_PATH, simulate, "--epsilon", "nan"},
        {DRE_SIMULATE_PATH, simulate, "--epsilon", "1.5"},
        {DRE_SIMULATE_PATH, "relay " + dir + "dre_cli_flag.csv", "--epsilon",
         "-0.5"},
        {DRE_TUNE_PATH, tune, "--waves", "-2"},
        {DRE_TUNE_PATH, tune, "--epsilons", "0,0.1x"},
        {DRE_TUNE_PATH, tune, "--epsilons", "0,1.5"},
        {DRE_TUNE_PATH, tune, "--mixture-weights", "2"},
        {DRE_TUNE_PATH, tune, "--mixture-arm", "1.5"},
        {DRE_TUNE_PATH, tune, "--ci-level", "inf"},
        {DRE_TUNE_PATH, tune, "--ci-level", "1.5"},
        {DRE_TUNE_PATH, tune, "--ci-level", "0"},
        {DRE_TUNE_PATH, tune, "--train-fraction", "1.5"},
        {DRE_TUNE_PATH, tune, "--train-fraction", "1"},
        {DRE_TUNE_PATH, tune, "--explore", "-0.1"},
        {DRE_TUNE_PATH, tune, "--redeploy-epsilon", "2"},
        {DRE_TUNE_PATH, tune, "--alpha", "0"},
        {DRE_TUNE_PATH, tune, "--temperatures", "-1"},
        {DRE_TUNE_PATH, tune, "--temperatures", "0"},
        {DRE_TUNE_PATH, tune, "--temperatures", "0.5,0"},
        {DRE_TUNE_PATH, tune_online, "--replicates", "0"},
        {DRE_SERVE_PATH, serve, "--port", "70000"},
        {DRE_SERVE_PATH, serve, "--port", "abc"},
        {DRE_SERVE_PATH, serve, "--max-queue", "-1"},
        {DRE_SERVE_PATH, serve, "--brownout-coverage", "0.5.5"},
        {DRE_SERVE_PATH, serve, "--brownout-coverage", "2"},
        {DRE_SERVE_PATH, serve, "--brownout-coverage", "-1"},
        {DRE_SERVE_PATH, serve, "--metrics-port", "65536"},
        {DRE_LOADGEN_PATH, eval, "--port", "70000"},
        {DRE_LOADGEN_PATH, loadgen, "--seed", "16184226688143867045x"},
        {DRE_LOADGEN_PATH, loadgen, "--clients", "8x"},
        {DRE_LOADGEN_PATH, loadgen, "--hedge-ms", "inf"},
        {DRE_LOADGEN_PATH, loadgen, "--ci", "1"},
        {DRE_TOP_PATH, "", "--metrics-port", "65536"},
        {DRE_TOP_PATH, "", "--metrics-port", "0"},
        {DRE_TOP_PATH, "--metrics-port 1", "--watch", "2s"},
        {DRE_TOP_PATH, "--metrics-port 1", "--watch", "0"},
    };
    for (const auto& row : rows) {
        std::filesystem::remove(port_file);
        const std::string args =
            row.args + " " + row.flag + " '" + row.value + "'";
        EXPECT_EQ(run_cli_env("timeout 10", args, err, row.binary), 2)
            << row.binary << " " << args;
        const std::string text = slurp(err);
        EXPECT_EQ(text.rfind(std::string("error: ") + row.flag + " ", 0), 0u)
            << row.binary << " " << args << ": " << text;
        EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
        EXPECT_FALSE(std::filesystem::exists(port_file)) << args;
    }
    // The whole uint64 range is a seed, past 2^63 included.
    EXPECT_EQ(run_cli(eval + " --seed 16184226688143867045"), 0);
    EXPECT_EQ(run_cli(eval + " --seed 18446744073709551615"), 0);
    // A closed interval admits its ends.
    EXPECT_EQ(run_cli(eval + " --quantile 0"), 0);
    EXPECT_EQ(run_cli(eval + " --quantile 1"), 0);
    // Zero replicates (no CI) stays valid for the offline leaderboard.
    EXPECT_EQ(run_cli_env("", tune + " --wave-size 200 --replicates 0", err,
                          DRE_TUNE_PATH),
              0)
        << slurp(err);
}

// The offline leaderboard reads the whole trace and walks no waves, so a
// trace shorter than one default wave (2000 tuples) still ranks.
TEST(Cli, OfflineTuneNeedsNoWaveOfTheTrace) {
    const std::string out = testing::TempDir() + "dre_cli_offline.txt";
    const std::string command = std::string(DRE_TUNE_PATH) + " " +
                                fixture_csv() + " --offline --constants > " +
                                out + " 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_EQ(WEXITSTATUS(status), 0) << slurp(out);
    EXPECT_NE(slurp(out).find("offline leaderboard"), std::string::npos)
        << slurp(out);
}

// An unknown argument, and a valued flag with nothing after it, exit 2
// and are named on the first stderr line, ahead of the usage text, by
// every tool and both dre_eval forms.
TEST(Cli, UnknownArgumentIsNamedFirst) {
    const std::string dir = testing::TempDir();
    const std::string err = dir + "dre_cli_unknown_err.txt";
    const std::string port_file = dir + "dre_cli_unknown_port.txt";
    const std::string eval = fixture_csv() + " uniform";
    const struct {
        const char* binary;
        std::string args;
        const char* valued_flag;
    } rows[] = {
        {DRE_EVAL_PATH, eval, "--seed"},
        {DRE_EVAL_PATH,
         "convert " + fixture_csv() + " " + dir + "dre_cli_unknown.drt",
         "--shards"},
        {DRE_SIMULATE_PATH, "cdn " + dir + "dre_cli_unknown.csv", "--seed"},
        {DRE_TUNE_PATH, fixture_csv() + " --offline --constants", "--seed"},
        {DRE_SERVE_PATH, "--port-file " + port_file, "--max-queue"},
        {DRE_LOADGEN_PATH, "--port 1 " + eval, "--seed"},
        {DRE_TOP_PATH, "--metrics-port 1", "--filter"},
    };
    for (const auto& row : rows) {
        const std::pair<std::string, std::string> tails[] = {
            {"--alien-flag", "error: unknown argument '--alien-flag'"},
            {row.valued_flag,
             std::string("error: ") + row.valued_flag + " needs a value"},
        };
        for (const auto& [tail, first_line] : tails) {
            std::filesystem::remove(port_file);
            const std::string args = row.args + " " + tail;
            EXPECT_EQ(run_cli_env("timeout 10", args, err, row.binary), 2)
                << row.binary << " " << args;
            const std::string text = slurp(err);
            EXPECT_EQ(text.substr(0, text.find('\n')), first_line)
                << row.binary << " " << args << ": " << text;
            EXPECT_FALSE(std::filesystem::exists(port_file)) << args;
        }
    }
}

TEST(Cli, ErrorsAreOneLineOnStderr) {
    const std::string err = testing::TempDir() + "dre_cli_err.txt";
    ASSERT_EQ(run_cli_env("", "/nonexistent.csv uniform", err), 3);
    const std::string text = slurp(err);
    EXPECT_EQ(text.compare(0, 7, "error: "), 0) << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
}

// The chaos path end to end: a seeded corruption fault under --streaming
// quarantines one row group, exits 0, and writes a quarantine report that
// is byte-identical across DRE_THREADS settings. The same fault under
// strict mode aborts with the input-error exit code.
TEST(Cli, StreamingQuarantineIsByteIdenticalAcrossThreads) {
    const std::string base =
        fixture_drt() +
        " uniform --streaming --ci 50 --seed 7"
        " --fault-spec store.read:nth=2,kind=corruption --on-error quarantine"
        " --quarantine-out ";
    const std::string q1 = testing::TempDir() + "dre_cli_q1.txt";
    const std::string q8 = testing::TempDir() + "dre_cli_q8.txt";
    const std::string err = testing::TempDir() + "dre_cli_qerr.txt";
    ASSERT_EQ(run_cli_env("DRE_THREADS=1", base + q1, err), 0);
    ASSERT_EQ(run_cli_env("DRE_THREADS=8", base + q8, err), 0);

    const std::string report = slurp(q1);
    EXPECT_EQ(report, slurp(q8));
    EXPECT_NE(report.find("store-corruption"), std::string::npos) << report;
    EXPECT_NE(report.find("quarantined"), std::string::npos) << report;

    EXPECT_EQ(run_cli(fixture_drt() +
                      " uniform --streaming --seed 7"
                      " --fault-spec store.read:nth=2,kind=corruption"
                      " --on-error strict"),
              3);
}

TEST(Cli, CheckpointThenResumeSucceeds) {
    const std::string ck = testing::TempDir() + "dre_cli_ck.bin";
    std::remove(ck.c_str());
    const std::string args = fixture_drt() +
                             " uniform --streaming --ci 50 --seed 11"
                             " --checkpoint " + ck;
    ASSERT_EQ(run_cli(args), 0);
    // Resume from the completed checkpoint replays the reduction verbatim;
    // a resume against a missing file silently starts fresh.
    EXPECT_EQ(run_cli(args + " --resume"), 0);
    std::remove(ck.c_str());
    EXPECT_EQ(run_cli(args + " --resume"), 0);
}

} // namespace
} // namespace dre
