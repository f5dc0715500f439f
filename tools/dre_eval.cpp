// dre_eval — evaluate a candidate policy against a logged trace.
//
// Usage:
//   dre_eval <trace> <policy-spec> [options]
//   dre_eval convert <input> <output> [--shards N] [--row-group-rows M]
//
// <trace> / <input> may be a CSV file, a single binary columnar store
// (*.drt, see store/format.h), or a shard-set prefix expanding to every
// matching `<prefix>*.drt` in lexicographic order.
//
// Policy specs:
//   constant:<d>        always choose decision d
//   uniform             uniform over the trace's decision space
//   greedy:<model>      argmax of a reward model fit on the trace, where
//                       <model> is tabular | linear | knn
//   greedy:<model>:<e>  same, uniform-smoothed with epsilon e in [0,1]
//                       (the redeployable shape: every arm keeps support)
//
// Options:
//   --estimate-propensities   re-estimate mu_old(d|c) from the trace
//   --cross-fit               fit the reward model on a held-out split
//   --model <kind>            DM/DR reward model (tabular | linear | knn)
//   --ci <replicates>         bootstrap CI replicates for the DR estimate
//                             (0 = none, else 2..100000)
//   --quantile <q>            also report the q-quantile under the policy
//                             (q in [0, 1])
//   --by-group <i>            per-segment DR values, grouped by the i-th
//                             categorical feature
//   --check-drift             flag reward change-points inside the trace
//   --audit                   run the full §4.1 pitfall audit on the trace
//                             (propensity validity, overlap, drift, shifts)
//   --compare <policy-spec>   treat <policy-spec> as the incumbent and
//                             certify whether the main policy improves on
//                             it (paired DR lift over the q̂ rows, with
//                             the engine's chunk-keyed 95% bootstrap CI,
//                             1000 replicates)
//   --obs-out <file>          write the dre::obs metric registry (counters,
//                             gauges, histograms, span profile) as the
//                             OpenMetrics text that /metrics serves
//   --trace-out <file>        collect spans as a chrome://tracing JSON file
//                             (open at chrome://tracing or ui.perfetto.dev)
//   --seed <n>                RNG seed (default 1)
//   --streaming               out-of-core evaluation: stream row groups
//                             through the estimators instead of loading the
//                             trace (bit-identical results; .drt input only)
//   --fit-sample <n>          rows read in-memory to fit the reward model /
//                             greedy policy under --streaming (default
//                             100000, at least 1)
//   --fault-spec <spec>       arm deterministic fault injection, e.g.
//                             store.read:p=0.01,kind=transient;store.crc:nth=7
//                             (seeded by --seed; see fault/fault.h)
//   --on-error <mode>         streaming failure mode: strict (default,
//                             first error aborts) | quarantine (skip damaged
//                             row groups / invalid tuples, report them) |
//                             degrade (quarantine + coverage-widened CI)
//   --checkpoint <file>       streaming: write resumable reduction state
//                             after every wave (atomic tmp+rename)
//   --resume                  streaming: continue from --checkpoint if the
//                             file exists (bit-identical to an
//                             uninterrupted run)
//   --quarantine-out <file>   write the canonical quarantine report text
//                             (byte-diffable across thread counts)
//
// convert moves traces between formats and shard layouts: CSV <-> .drt in
// either direction, and .drt -> N shards via --shards (output treated as a
// prefix, producing <output>00000.drt ...).
//
// The trace CSV format is the library's own (see dre::write_csv):
//   decision,reward,propensity,state,n0,...,c0,...
//
// Every failure prints exactly one `error: ...` line to stderr (an unknown
// argument's is followed by the usage text) and exits with a classified
// code:
//   0  success
//   2  bad arguments (unknown flag, malformed spec, incompatible options)
//   3  bad input (missing/corrupt trace or store, empty trace, checkpoint
//      mismatch, I/O failure — injected or real)
//   4  internal error (anything else)
//   5  interrupted (--streaming only): SIGINT/SIGTERM landed mid-run; the
//      in-flight wave was drained and the final checkpoint flushed, so a
//      rerun with --resume continues bit-identically
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"

#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/evaluator.h"
#include "core/policy_learning.h"
#include "core/quantile_estimators.h"
#include "core/drift.h"
#include "core/streaming.h"
#include "core/subgroup.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "store/error.h"
#include "store/sharded.h"
#include "store/writer.h"
#include "trace/csv.h"
#include "trace/validate.h"

using namespace dre;

namespace {

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <trace.csv|trace.drt|shard-prefix> <policy-spec> "
                 "[--estimate-propensities] "
                 "[--cross-fit] [--model tabular|linear|knn] [--ci N] "
                 "[--quantile q] [--by-group i] [--check-drift] [--audit] "
                 "[--compare policy-spec] [--obs-out file] [--trace-out file] "
                 "[--seed n] [--streaming] [--fit-sample n] "
                 "[--fault-spec spec] [--on-error strict|quarantine|degrade] "
                 "[--checkpoint file] [--resume] [--quarantine-out file]\n"
                 "       %s convert <input> <output> [--shards N] "
                 "[--row-group-rows M]\n",
                 argv0, argv0);
    std::exit(2);
}

int run_convert(int argc, char** argv) {
    if (argc < 4) usage(argv[0]);
    const std::string in_path = argv[2];
    const std::string out_path = argv[3];
    std::size_t shards = 0;
    store::StoreWriter::Options writer_options;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--shards") {
            shards = tools::parse_flag<std::size_t>(
                "--shards", tools::flag_value(argc, argv, i, "--shards"));
        } else if (arg == "--row-group-rows") {
            writer_options.row_group_rows = tools::parse_flag<std::uint32_t>(
                "--row-group-rows",
                tools::flag_value(argc, argv, i, "--row-group-rows"));
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }

    if (out_path.ends_with(".csv")) {
        if (shards != 0)
            throw std::invalid_argument("--shards only applies to .drt output");
        const Trace trace = store::load_trace(in_path);
        write_csv_file(trace, out_path);
        std::printf("wrote %zu tuples to %s\n", trace.size(), out_path.c_str());
        return 0;
    }

    if (shards > 0) {
        // Output is a shard prefix. Store input streams shard-to-shard in
        // bounded batches; CSV input is already in memory from parsing.
        std::vector<std::string> out_shards;
        if (!in_path.ends_with(".csv")) {
            const store::ShardedStore in(store::resolve_shards(in_path));
            out_shards = store::split_store(in, out_path, shards, writer_options);
        } else {
            const Trace trace = read_csv_file(in_path);
            const std::uint64_t n = trace.size();
            const store::StoreSchema schema =
                trace.empty()
                    ? store::StoreSchema{0, 0}
                    : store::StoreSchema{static_cast<std::uint32_t>(
                                      trace[0].context.numeric_dims()),
                                  static_cast<std::uint32_t>(
                                      trace[0].context.categorical_dims())};
            for (std::size_t s = 0; s < shards; ++s) {
                char suffix[32]; // "%05zu" of a size_t is up to 20 digits
                std::snprintf(suffix, sizeof(suffix), "%05zu.drt", s);
                const std::string path = out_path + suffix;
                store::StoreWriter writer(path, schema, writer_options);
                for (std::uint64_t r = n * s / shards;
                     r < n * (s + 1) / shards; ++r)
                    writer.append(trace[static_cast<std::size_t>(r)]);
                writer.finalize();
                out_shards.push_back(path);
            }
        }
        for (const std::string& s : out_shards)
            std::printf("wrote shard %s\n", s.c_str());
        return 0;
    }

    if (!out_path.ends_with(".drt"))
        throw std::invalid_argument(
            "output must end in .csv or .drt (or pass --shards N with a "
            "prefix)");
    if (!in_path.ends_with(".csv")) {
        const store::ShardedStore in(store::resolve_shards(in_path));
        store::concat_stores(in, out_path, writer_options);
        std::printf("wrote %llu tuples to %s\n",
                    static_cast<unsigned long long>(in.num_tuples()),
                    out_path.c_str());
    } else {
        const Trace trace = read_csv_file(in_path);
        store::write_store_file(trace, out_path, writer_options);
        std::printf("wrote %zu tuples to %s\n", trace.size(), out_path.c_str());
    }
    return 0;
}

// SIGINT/SIGTERM request a graceful stop of the streaming wave loop; the
// handler just latches the flag (async-signal-safe) and the loop exits at
// the next wave boundary with its checkpoint already flushed.
std::atomic<bool> g_interrupted{false};

extern "C" void handle_stop_signal(int) { g_interrupted.store(true); }

// Writes --obs-out and --trace-out after the report, as both modes do.
void write_telemetry(const std::string& obs_out, const std::string& trace_out) {
    if (!obs_out.empty()) {
        if (obs::write_openmetrics_file(obs_out))
            std::printf("\nwrote obs report to %s\n", obs_out.c_str());
        else
            std::fprintf(stderr, "failed to write %s\n", obs_out.c_str());
    }
    if (!trace_out.empty()) {
        if (obs::write_chrome_trace_file(trace_out))
            std::printf("wrote chrome trace to %s (load at "
                        "chrome://tracing)\n",
                        trace_out.c_str());
        else
            std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
    }
}

} // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::strcmp(argv[1], "convert") == 0) {
        try {
            return run_convert(argc, argv);
        } catch (const std::exception& e) {
            return tools::report_error(e);
        }
    }
    if (argc < 3) usage(argv[0]);
    try {
        const std::string path = argv[1];
        const std::string policy_spec = argv[2];

        core::EvaluationConfig config;
        std::optional<double> quantile_q;
        std::optional<std::size_t> group_index;
        bool check_drift = false;
        bool run_audit = false;
        bool streaming = false;
        std::optional<std::uint64_t> fit_sample; // default 100000 rows
        std::string compare_spec;
        std::string obs_out, trace_out;
        std::string fault_spec, checkpoint_path, quarantine_out;
        core::FailureMode on_error = core::FailureMode::kStrict;
        bool on_error_set = false;
        bool resume = false;
        std::uint64_t seed = 1;
        for (int i = 3; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--estimate-propensities") {
                config.estimate_propensities = true;
            } else if (arg == "--cross-fit") {
                config.cross_fit = true;
            } else if (arg == "--model") {
                config.reward_model = core::parse_reward_model_kind(
                    tools::flag_value(argc, argv, i, "--model"));
            } else if (arg == "--ci") {
                config.ci_replicates = tools::parse_replicate_count(
                    "--ci", tools::flag_value(argc, argv, i, "--ci"));
            } else if (arg == "--quantile") {
                quantile_q = tools::parse_unit_flag(
                    "--quantile",
                    tools::flag_value(argc, argv, i, "--quantile"));
            } else if (arg == "--by-group") {
                group_index = tools::parse_flag<std::size_t>(
                    "--by-group",
                    tools::flag_value(argc, argv, i, "--by-group"));
            } else if (arg == "--check-drift") {
                check_drift = true;
            } else if (arg == "--audit") {
                run_audit = true;
            } else if (arg == "--compare") {
                compare_spec = tools::flag_value(argc, argv, i, "--compare");
            } else if (arg == "--obs-out") {
                obs_out = tools::flag_value(argc, argv, i, "--obs-out");
            } else if (arg == "--trace-out") {
                trace_out = tools::flag_value(argc, argv, i, "--trace-out");
                // Collection is off by default; only a requested export
                // pays the per-span trace-buffer cost.
                obs::set_trace_enabled(true);
            } else if (arg == "--seed") {
                seed = tools::parse_flag<std::uint64_t>(
                    "--seed", tools::flag_value(argc, argv, i, "--seed"));
            } else if (arg == "--streaming") {
                streaming = true;
            } else if (arg == "--fit-sample") {
                const std::string text =
                    tools::flag_value(argc, argv, i, "--fit-sample");
                fit_sample =
                    tools::parse_flag<std::uint64_t>("--fit-sample", text);
                if (*fit_sample == 0)
                    tools::reject_flag("--fit-sample", "at least 1", text);
            } else if (arg == "--fault-spec") {
                fault_spec = tools::flag_value(argc, argv, i, "--fault-spec");
            } else if (arg == "--on-error") {
                on_error = core::parse_failure_mode(
                    tools::flag_value(argc, argv, i, "--on-error"));
                on_error_set = true;
            } else if (arg == "--checkpoint") {
                checkpoint_path =
                    tools::flag_value(argc, argv, i, "--checkpoint");
            } else if (arg == "--resume") {
                resume = true;
            } else if (arg == "--quarantine-out") {
                quarantine_out =
                    tools::flag_value(argc, argv, i, "--quarantine-out");
            } else {
                std::fprintf(stderr, "error: unknown argument '%s'\n",
                             arg.c_str());
                usage(argv[0]);
            }
        }

        if (!fault_spec.empty()) {
            // Validate eagerly (a malformed spec is a usage error) and arm
            // the process-wide injector with the run's seed.
            fault::Injector::global().configure_spec(fault_spec, seed);
        }
        if (!streaming && fit_sample)
            throw std::invalid_argument("--fit-sample requires --streaming");
        if (!streaming &&
            (on_error_set || !checkpoint_path.empty() || resume ||
             !quarantine_out.empty()))
            throw std::invalid_argument(
                "--on-error/--checkpoint/--resume/--quarantine-out require "
                "--streaming");

        if (streaming) {
            // The streaming path never materializes the trace, so every
            // option that needs random access to all tuples is out.
            if (config.cross_fit || config.estimate_propensities ||
                run_audit || check_drift || group_index ||
                quantile_q || !compare_spec.empty())
                throw std::invalid_argument(
                    "--streaming supports only --model/--ci/--seed/"
                    "--fit-sample (the other analyses need the full trace "
                    "in memory)");
            if (path.ends_with(".csv"))
                throw std::invalid_argument(
                    "--streaming needs .drt input (run `dre_eval convert` "
                    "first)");

            const store::ShardedStore shards(store::resolve_shards(path));
            const std::uint64_t n = shards.num_tuples();
            if (n == 0) throw std::runtime_error("trace is empty");
            const std::size_t decisions = shards.num_decisions();
            std::printf("trace: %llu tuples, %zu decisions, %zu shard(s), "
                        "streaming\n",
                        static_cast<unsigned long long>(n), decisions,
                        shards.num_shards());

            // Fit model + greedy policy on a bounded in-memory prefix; the
            // evaluation itself streams the whole trace. Tolerant modes
            // harden the fit read too: damaged row groups are skipped and
            // defective tuples dropped, so a quarantinable trace does not
            // abort before the guarded evaluation even starts.
            std::vector<LoggedTuple> head;
            const std::uint64_t head_n =
                std::min<std::uint64_t>(fit_sample.value_or(100000), n);
            std::vector<store::ReadFailure> fit_failures;
            shards.read_rows(0, head_n, head,
                             on_error == core::FailureMode::kStrict
                                 ? nullptr
                                 : &fit_failures);
            Trace fit_trace(std::move(head));
            if (on_error != core::FailureMode::kStrict)
                remove_defective_tuples(fit_trace, decisions);
            if (fit_trace.empty())
                throw std::runtime_error(
                    "no usable tuples in the fit sample (trace damage "
                    "exceeds what quarantine can absorb)");
            const auto policy =
                core::parse_policy_spec(policy_spec, fit_trace, decisions);
            const auto model = core::fit_reward_model(config.reward_model,
                                                      decisions, fit_trace);

            core::StreamingOptions stream_options;
            stream_options.estimator_options = config.estimator_options;
            stream_options.ci_replicates = config.ci_replicates;
            stream_options.ci_level = config.ci_level;
            stream_options.on_error = on_error;
            stream_options.checkpoint_path = checkpoint_path;
            stream_options.resume = resume;
            stream_options.interrupt = &g_interrupted;
            std::signal(SIGINT, handle_stop_signal);
            std::signal(SIGTERM, handle_stop_signal);
            const store::StoreTupleSource source(shards);
            core::StreamingResult guarded;
            try {
                guarded = core::evaluate_streaming_guarded(source, *model,
                                                           *policy,
                                                           stream_options,
                                                           stats::Rng(seed));
            } catch (const core::StreamingInterrupted& e) {
                std::fprintf(stderr, "interrupted: %s%s\n", e.what(),
                             checkpoint_path.empty()
                                 ? ""
                                 : "; checkpoint flushed, rerun with "
                                   "--resume to continue");
                return 5;
            }
            const core::PolicyEvaluation& result = guarded.evaluation;

            obs::Report out = core::make_policy_report(policy_spec, result);
            if (!guarded.quarantine.empty()) {
                out.set("quarantine", "tuples quarantined",
                        static_cast<double>(
                            guarded.quarantine.tuples_quarantined));
                out.set("quarantine", "coverage",
                        guarded.quarantine.coverage());
            }
            out.print(stdout);
            if (!guarded.quarantine.empty()) {
                std::printf("\n%s", guarded.quarantine.to_text().c_str());
                if (on_error == core::FailureMode::kDegrade && result.dr_ci)
                    std::printf("  DR CI is coverage-widened (degrade mode)\n");
            }
            if (!quarantine_out.empty()) {
                core::write_file_atomically(quarantine_out,
                                            guarded.quarantine.to_text());
                std::printf("\nwrote quarantine report to %s\n",
                            quarantine_out.c_str());
            }
            write_telemetry(obs_out, trace_out);
            return 0;
        }

        const Trace trace = store::load_trace(path);
        // Structural validation at read time, with the same reason codes
        // the audit linter and the streaming QuarantineReport use, so a
        // defective trace is rejected here with a per-reason census
        // instead of failing later inside an estimator.
        require_evaluable(trace);
        std::printf("trace: %zu tuples, %zu decisions\n", trace.size(),
                    trace.num_decisions());

        if (check_drift) {
            const core::DriftReport drift = core::detect_reward_drift(trace);
            if (drift.drift_detected()) {
                std::printf("\nWARNING: reward drift detected inside the trace "
                            "(%zu segments):\n",
                            drift.num_segments());
                for (std::size_t s = 0; s < drift.segment_means.size(); ++s)
                    std::printf("  segment %zu: mean reward %.4f\n", s,
                                drift.segment_means[s]);
                std::printf("  consider state-matched evaluation per segment "
                            "(see core/world_state.h)\n");
            } else {
                std::printf("\nno reward drift detected inside the trace\n");
            }
        }

        const auto policy =
            core::parse_policy_spec(policy_spec, trace, trace.num_decisions());

        if (run_audit) {
            const auto findings = core::audit_trace(trace, policy.get());
            if (findings.empty()) {
                std::printf("\naudit: no pitfalls detected\n");
            } else {
                std::printf("\naudit: %zu finding(s):\n", findings.size());
                for (const auto& f : findings)
                    std::printf("  [%s] %s: %s\n", core::to_string(f.severity),
                                f.code.c_str(), f.message.c_str());
            }
        }

        const core::Evaluator evaluator(trace, config, stats::Rng(seed));
        const core::PolicyEvaluation result = evaluator.evaluate(*policy);

        // Result document rendered by the shared make_policy_report so the
        // CLI, the examples, and the serve layer all emit identical bytes.
        obs::Report out = core::make_policy_report(policy_spec, result);

        if (quantile_q) {
            const double q = core::off_policy_quantile(
                evaluator.evaluation_trace(), *policy, *quantile_q);
            char label[64];
            std::snprintf(label, sizeof(label), "reward %.0f%%-quantile",
                          100.0 * *quantile_q);
            out.set("diagnostics", label, q);
        }

        if (!compare_spec.empty()) {
            const auto incumbent = core::parse_policy_spec(
                compare_spec, trace, trace.num_decisions());
            stats::Rng certify_rng(seed + 1);
            const core::ImprovementReport report = core::certify_improvement(
                evaluator.evaluation_trace(), *incumbent, *policy,
                evaluator.prediction_matrix(), certify_rng);
            const std::string compare_section = "vs incumbent " + compare_spec;
            out.set(compare_section, "incumbent DR", report.incumbent_value);
            out.set(compare_section, "candidate DR", report.candidate_value);
            char lift_row[128];
            std::snprintf(lift_row, sizeof(lift_row),
                          "%10.4f   %.0f%% CI [%.4f, %.4f]",
                          report.estimated_lift, 100.0 * report.lift_ci.level,
                          report.lift_ci.lower, report.lift_ci.upper);
            out.set(compare_section, "lift", lift_row);
            out.set(compare_section, "verdict",
                    report.certified
                        ? "CERTIFIED better (CI excludes zero)"
                        : "not certified (CI includes zero or negative)");
        }

        out.print(stdout);

        if (group_index) {
            const auto groups = core::subgroup_analysis(
                evaluator.evaluation_trace(), *policy, evaluator.reward_model(),
                core::group_by_categorical(*group_index));
            std::printf("\nper-segment DR (categorical feature %zu):\n",
                        *group_index);
            std::printf("  %8s %8s %10s %8s %s\n", "group", "tuples", "DR",
                        "ESS", "reliable");
            for (const auto& g : groups)
                std::printf("  %8lld %8zu %10.4f %8.1f %s\n",
                            static_cast<long long>(g.group), g.tuples,
                            g.dr.value, g.overlap.effective_sample_size,
                            g.reliable ? "yes" : "NO");
        }
        write_telemetry(obs_out, trace_out);
        return 0;
    } catch (const std::exception& e) {
        return tools::report_error(e);
    }
}
