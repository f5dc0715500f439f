// dre_tune — closed-loop policy search and online tuning.
//
// Usage:
//   dre_tune <source> [options]
//
// <source> selects where waves of logged tuples come from:
//   cdn                 live cdn::VideoQualityEnv traffic (fresh waves are
//                       collected under the evolving logging policy)
//   <trace|prefix>      historical replay: a CSV file, a .drt store, or a
//                       shard prefix; waves walk the store in order and the
//                       logged propensities stay authoritative
//
// Candidate space (enumerated deterministically; see tune/candidate.h):
//   --models m1,m2          reward models for greedy/softmax/mix candidates
//                           (tabular | linear | knn; default tabular)
//   --epsilons e1,e2        greedy smoothing grid (default 0,0.05,0.1)
//   --temperatures t1,t2    softmax temperature grid (default none)
//   --constants             add one constant candidate per arm
//   --mixture-weights w1,w2 staged-rollout mixture grid (default none)
//   --mixture-arm d         pin arm for mixture candidates (default 0)
//
// Modes:
//   --offline               one offline DR leaderboard over the input trace
//                           (collected under uniform logging when <source>
//                           is cdn), printed and exit — no online loop
//   default                 the online loop: propose -> collect wave ->
//                           DR-score vs incumbent -> promote behind the CI
//                           gate, for --waves waves
//
// Options:
//   --waves N               online waves (default 16)
//   --wave-size N           tuples per wave (default 2000)
//   --explore e             controller exploration probability (default 0.2)
//   --alpha a               controller recency weight (default 0.5)
//   --redeploy-epsilon e    uniform smoothing on the deployed incumbent
//                           (default 0.1)
//   --eval-model kind       referee reward model for DR scoring
//   --replicates N          bootstrap replicates for the CI gate (default
//                           200; 0 = no CI, --offline only, else 2..100000)
//   --ci-level l            CI level (default 0.95)
//   --train-fraction f      offline train split (default 0.5)
//   --seed n                RNG seed (default 1)
//   --journal file          write the canonical promotion journal text
//   --checkpoint file       write resumable tuner state after every wave
//   --resume                continue from --checkpoint if it exists
//   --obs-out file          write the dre::obs metric registry as the
//                           OpenMetrics text that /metrics serves
//
// Exit codes follow dre_eval: 0 success, 2 bad arguments, 3 bad input,
// 4 internal error, 5 interrupted (checkpoint flushed; rerun with --resume).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cli_flags.h"

#include "cdn/scenario.h"
#include "core/checkpoint.h"
#include "core/environment.h"
#include "core/policy.h"
#include "core/streaming.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "stats/rng.h"
#include "store/sharded.h"
#include "trace/csv.h"
#include "tune/candidate.h"
#include "tune/offline.h"
#include "tune/tuner.h"

using namespace dre;

namespace {

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <cdn|trace.csv|trace.drt|shard-prefix> "
                 "[--models m1,m2] [--epsilons e1,e2] [--temperatures t1,t2] "
                 "[--constants] [--mixture-weights w1,w2] [--mixture-arm d] "
                 "[--offline] [--waves N] [--wave-size N] [--explore e] "
                 "[--alpha a] [--redeploy-epsilon e] "
                 "[--eval-model tabular|linear|knn] [--replicates N] "
                 "[--ci-level l] [--train-fraction f] [--seed n] "
                 "[--journal file] [--checkpoint file] [--resume] "
                 "[--obs-out file]\n",
                 argv0);
    std::exit(2);
}

std::vector<std::string> split_list(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(csv.substr(start));
            break;
        }
        out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::vector<double> parse_positive_list(const std::string& csv,
                                        const char* flag) {
    std::vector<double> out;
    for (const std::string& field : split_list(csv))
        out.push_back(tools::parse_positive_flag(flag, field));
    return out;
}

std::vector<double> parse_unit_list(const std::string& csv, const char* flag) {
    std::vector<double> out;
    for (const std::string& field : split_list(csv))
        out.push_back(tools::parse_unit_flag(flag, field));
    return out;
}

std::vector<core::RewardModelKind> parse_model_list(const std::string& csv) {
    std::vector<core::RewardModelKind> out;
    for (const std::string& field : split_list(csv))
        out.push_back(core::parse_reward_model_kind(field));
    return out;
}

std::atomic<bool> g_interrupted{false};

extern "C" void handle_stop_signal(int) { g_interrupted.store(true); }

void write_obs(const std::string& obs_out) {
    if (obs_out.empty()) return;
    if (obs::write_openmetrics_file(obs_out))
        std::printf("wrote obs report to %s\n", obs_out.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", obs_out.c_str());
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage(argv[0]);
    try {
        const std::string source_arg = argv[1];

        tune::CandidateSpace space;
        space.epsilons = {0.0, 0.05, 0.1};
        bool offline = false;
        tune::TuneOptions options;
        tune::OfflineSearchOptions offline_options;
        std::size_t wave_size = 2000;
        std::uint64_t seed = 1;
        std::string journal_out, obs_out;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--models") {
                space.models = parse_model_list(
                    tools::flag_value(argc, argv, i, "--models"));
            } else if (arg == "--epsilons") {
                space.epsilons = parse_unit_list(
                    tools::flag_value(argc, argv, i, "--epsilons"),
                    "--epsilons");
            } else if (arg == "--temperatures") {
                space.temperatures = parse_positive_list(
                    tools::flag_value(argc, argv, i, "--temperatures"),
                    "--temperatures");
            } else if (arg == "--constants") {
                space.include_constants = true;
            } else if (arg == "--mixture-weights") {
                space.mixture_weights = parse_unit_list(
                    tools::flag_value(argc, argv, i, "--mixture-weights"),
                    "--mixture-weights");
            } else if (arg == "--mixture-arm") {
                space.mixture_arm = tools::parse_flag<Decision>(
                    "--mixture-arm",
                    tools::flag_value(argc, argv, i, "--mixture-arm"));
            } else if (arg == "--offline") {
                offline = true;
            } else if (arg == "--waves") {
                options.waves = tools::parse_flag<std::uint64_t>(
                    "--waves", tools::flag_value(argc, argv, i, "--waves"));
            } else if (arg == "--wave-size") {
                wave_size = tools::parse_flag<std::size_t>(
                    "--wave-size",
                    tools::flag_value(argc, argv, i, "--wave-size"));
            } else if (arg == "--explore") {
                options.controller.epsilon = tools::parse_unit_flag(
                    "--explore", tools::flag_value(argc, argv, i, "--explore"));
            } else if (arg == "--alpha") {
                options.controller.alpha = tools::parse_unit_flag(
                    "--alpha", tools::flag_value(argc, argv, i, "--alpha"),
                    tools::UnitInterval::kOpenLow);
            } else if (arg == "--redeploy-epsilon") {
                options.redeploy_epsilon = tools::parse_unit_flag(
                    "--redeploy-epsilon",
                    tools::flag_value(argc, argv, i, "--redeploy-epsilon"));
            } else if (arg == "--eval-model") {
                options.eval_model = core::parse_reward_model_kind(
                    tools::flag_value(argc, argv, i, "--eval-model"));
                offline_options.eval_model = options.eval_model;
            } else if (arg == "--replicates") {
                options.bootstrap_replicates = tools::parse_replicate_count(
                    "--replicates",
                    tools::flag_value(argc, argv, i, "--replicates"));
                offline_options.bootstrap_replicates =
                    options.bootstrap_replicates;
            } else if (arg == "--ci-level") {
                options.ci_level = tools::parse_unit_flag(
                    "--ci-level",
                    tools::flag_value(argc, argv, i, "--ci-level"),
                    tools::UnitInterval::kOpen);
                offline_options.ci_level = options.ci_level;
            } else if (arg == "--train-fraction") {
                offline_options.train_fraction = tools::parse_unit_flag(
                    "--train-fraction",
                    tools::flag_value(argc, argv, i, "--train-fraction"),
                    tools::UnitInterval::kOpen);
            } else if (arg == "--seed") {
                seed = tools::parse_flag<std::uint64_t>(
                    "--seed", tools::flag_value(argc, argv, i, "--seed"));
            } else if (arg == "--journal") {
                journal_out = tools::flag_value(argc, argv, i, "--journal");
            } else if (arg == "--checkpoint") {
                options.checkpoint_path =
                    tools::flag_value(argc, argv, i, "--checkpoint");
            } else if (arg == "--resume") {
                options.resume = true;
            } else if (arg == "--obs-out") {
                obs_out = tools::flag_value(argc, argv, i, "--obs-out");
            } else {
                std::fprintf(stderr, "error: unknown argument '%s'\n",
                             arg.c_str());
                usage(argv[0]);
            }
        }
        // Zero replicates means "no CI", which only the offline leaderboard
        // can print; the online gate promotes on an interval.
        if (!offline && options.bootstrap_replicates == 0)
            tools::reject_flag(
                "--replicates",
                "an integer in [2, " +
                    std::to_string(stats::kMaxBootstrapReplicates) +
                    "] without --offline",
                "0");

        // Open the input. Objects the sources point at must outlive the
        // run, hence the unique_ptrs held here.
        std::unique_ptr<cdn::VideoQualityEnv> env;
        std::unique_ptr<Trace> trace_storage;
        std::unique_ptr<store::ShardedStore> store_storage;
        std::unique_ptr<core::TupleSource> tuple_source;
        if (source_arg == "cdn") {
            env = std::make_unique<cdn::VideoQualityEnv>(cdn::CdnWorldConfig{});
            space.num_decisions = env->num_decisions();
        } else if (source_arg.ends_with(".csv")) {
            trace_storage =
                std::make_unique<Trace>(read_csv_file(source_arg));
            space.num_decisions = trace_storage->num_decisions();
            tuple_source =
                std::make_unique<core::TraceTupleSource>(*trace_storage);
        } else {
            store_storage = std::make_unique<store::ShardedStore>(
                store::resolve_shards(source_arg));
            space.num_decisions = store_storage->num_decisions();
            tuple_source =
                std::make_unique<store::StoreTupleSource>(*store_storage);
        }

        const std::vector<tune::PolicyCandidate> candidates =
            tune::enumerate(space);
        std::printf("candidate space: %zu candidates over %zu decisions\n",
                    candidates.size(), space.num_decisions);

        if (offline) {
            stats::Rng rng(seed);
            Trace trace;
            if (env != nullptr) {
                // No logged history for a live env: collect one uniform
                // batch to search over (the §4.1 randomized-logging shape).
                const core::UniformRandomPolicy uniform(env->num_decisions());
                trace = core::collect_trace(*env, uniform,
                                            wave_size * options.waves, rng);
            } else {
                std::vector<LoggedTuple> tuples;
                tuple_source->read(0, tuple_source->num_tuples(), tuples);
                trace = Trace(std::move(tuples));
            }
            const tune::Leaderboard board = tune::search_policies(
                trace, candidates, offline_options, rng);
            std::fputs(board.to_text().c_str(), stdout);
            if (!journal_out.empty())
                core::write_file_atomically(journal_out, board.to_text());
            write_obs(obs_out);
            return 0;
        }

        // Only the online loop walks waves, so only it needs the input to
        // hold one.
        std::unique_ptr<tune::WaveSource> source;
        if (env != nullptr) {
            source = std::make_unique<tune::EnvWaveSource>(*env, wave_size);
        } else {
            source = std::make_unique<tune::StoreWaveSource>(*tuple_source,
                                                             wave_size);
        }

        std::signal(SIGINT, handle_stop_signal);
        std::signal(SIGTERM, handle_stop_signal);
        options.interrupt = &g_interrupted;

        const tune::TuneResult result =
            tune::run_tune(*source, candidates, options, seed);
        std::fputs(result.journal_text().c_str(), stdout);
        std::printf(
            "tune: waves=%llu promotions=%llu incumbent=%s interrupted=%s\n",
            static_cast<unsigned long long>(result.waves_run),
            static_cast<unsigned long long>(result.promotions),
            result.incumbent_spec.c_str(), result.interrupted ? "yes" : "no");
        if (!journal_out.empty())
            core::write_file_atomically(journal_out, result.journal_text());
        write_obs(obs_out);
        return result.interrupted ? 5 : 0;
    } catch (const std::exception& e) {
        return tools::report_error(e);
    }
}
