// eval_batch and eval_stream: the two engines behind `dre_eval <shards>
// greedy:tabular --ci 1000`, timed as a CLI user meets them. Fresh set-ups
// are repeated and interleaved with the evaluations across the whole window,
// so host-speed phases hit both alike.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy_learning.h"
#include "core/streaming.h"
#include "workloads.h"
#include "yardstick.h"

namespace perfbench {

using namespace dre;

namespace {

// The header lines dre_eval prints before the report, in-memory and
// streaming.
std::string batch_header(const store::ShardedStore& store) {
    char header[128];
    std::snprintf(header, sizeof(header), "trace: %llu tuples, %zu decisions\n",
                  static_cast<unsigned long long>(store.num_tuples()),
                  store.num_decisions());
    return header;
}

std::string stream_header(const store::ShardedStore& store) {
    char header[128];
    std::snprintf(header, sizeof(header),
                  "trace: %llu tuples, %zu decisions, %zu shard(s), "
                  "streaming\n",
                  static_cast<unsigned long long>(store.num_tuples()),
                  store.num_decisions(), store.num_shards());
    return header;
}

bool same(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

// Point estimates and diagnostics; the bootstrap CI depends on the seed.
bool same_point_bits(const core::PolicyEvaluation& a,
                     const core::PolicyEvaluation& b) {
    const auto& x = a.overlap;
    const auto& y = b.overlap;
    return same(a.dm.value, b.dm.value) && same(a.ips.value, b.ips.value) &&
           same(a.snips.value, b.snips.value) && same(a.dr.value, b.dr.value) &&
           same(a.switch_dr.value, b.switch_dr.value) &&
           same(x.effective_sample_size, y.effective_sample_size) &&
           same(x.effective_sample_fraction, y.effective_sample_fraction) &&
           same(x.max_weight, y.max_weight) &&
           same(x.mean_weight, y.mean_weight) &&
           same(x.weight_cv, y.weight_cv) &&
           same(x.zero_weight_fraction, y.zero_weight_fraction) && x.n == y.n;
}

// Every estimate, diagnostic and CI bound.
bool same_bits(const core::PolicyEvaluation& a,
               const core::PolicyEvaluation& b) {
    if (!same_point_bits(a, b) || a.dr_ci.has_value() != b.dr_ci.has_value())
        return false;
    if (!a.dr_ci) return true;
    return same(a.dr_ci->point, b.dr_ci->point) &&
           same(a.dr_ci->lower, b.dr_ci->lower) &&
           same(a.dr_ci->upper, b.dr_ci->upper) &&
           same(a.dr_ci->level, b.dr_ci->level);
}

// Timings of one measured window.
struct Window {
    std::vector<double> yard_ms;   // the yardstick run before each set-up
    std::vector<double> setup_ms;
    std::vector<double> sample_ms; // untraced samples
    std::vector<double> traced_ms; // traced samples (traced runs only)
    Usage used;                    // summed over the samples, not set-ups
};

void print_summary(const char* name, const std::vector<double>& ms) {
    std::printf("  %-14s median %.4f s  q1 %.4f  q3 %.4f  (%zu samples)\n",
                name, median(ms) / 1e3, quantile(ms, 0.25) / 1e3,
                quantile(ms, 0.75) / 1e3, ms.size());
}

// Alternates a yardstick run, a fresh set-up and one sample until the window
// closes, so all three see the same host phases. In a traced run every
// other sample is traced, so the same window yields the traced and untraced
// medians behind trace.overhead_pct. Each step's time goes to window.tsv in
// the run's output directory, one line per round.
template <typename Setup, typename Sample>
Window run_window(const Options& opts, SpanLog& spans, Setup&& setup,
                  Sample&& sample) {
    SpanLog untraced(false);
    Window w;
    std::FILE* tsv = std::fopen((opts.out_dir + "/window.tsv").c_str(), "w");
    if (tsv != nullptr)
        std::fprintf(tsv, "t_s\tyardstick_ms\tsetup_ms\tsample_ms\n");
    const std::int64_t start = now_ns();
    const std::int64_t end =
        start + static_cast<std::int64_t>(opts.seconds * 1e9);
    std::uint64_t index = 1; // sample 0 is the correctness check
    for (; now_ns() < end; ++index) {
        const double t = ms_between(start, now_ns()) / 1e3;
        w.yard_ms.push_back(yardstick_ms(par::thread_count()));
        w.setup_ms.push_back(setup(spans));
        const bool traced = opts.trace && index % 2 == 0;
        const Usage before = usage_now();
        const double ms = sample(index, traced ? spans : untraced);
        add_usage_since(before, w.used);
        (traced ? w.traced_ms : w.sample_ms).push_back(ms);
        if (tsv != nullptr)
            std::fprintf(tsv, "%.3f\t%.4f\t%.4f\t%.4f\n", t, w.yard_ms.back(),
                         w.setup_ms.back(), ms);
    }
    if (tsv != nullptr) std::fclose(tsv);
    return w;
}

// setup_s and eval_s are the medians at the reference host speed (see
// yardstick.h); the wall-clock medians are printed beside them.
void report_window(const Options& opts, const Window& w, Results& results) {
    std::printf("window: %.1f s, yardstick median %.3f ms "
                "(reference %.1f ms)\n",
                opts.seconds, median(w.yard_ms), kYardstickRefMs);
    print_summary("setup wall", w.setup_ms);
    print_summary("eval wall", w.sample_ms);
    if (opts.trace) return;
    // Untraced, every round has one sample: yard_ms[i] pairs with both.
    const std::vector<double> setup = at_reference_speed(w.setup_ms, w.yard_ms);
    const std::vector<double> eval = at_reference_speed(w.sample_ms, w.yard_ms);
    print_summary("setup_s", setup);
    print_summary("eval_s", eval);
    results.metric("setup_s", median(setup) / 1e3, "s");
    results.metric("eval_s", median(eval) / 1e3, "s");
    results.metric("peak_rss_mb", usage_now().maxrss_mb, "MB");
}

// The check evaluation's render and the dre_eval arguments that must print
// the same bytes (correctness gate b, run by run.py after this process).
void write_cli_check(const Options& opts, const std::string& text,
                     const std::vector<std::string>& args, Results& results) {
    std::string arg_lines;
    for (const std::string& a : args) arg_lines += a + "\n";
    if (!write_text_file(opts.out_dir + "/check.txt", text) ||
        !write_text_file(opts.out_dir + "/check.args", arg_lines))
        results.failed("cannot write the CLI check files to " + opts.out_dir);
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(fnv1a(text)));
}

// The traced run's ledger of an eval workload: isolated layers on the
// workload's shards, then the share of eval_s they leave unexplained. The
// blocking path is estimators + bootstrap + render, plus the store read and
// per-chunk q̂ fill that the streaming engine repeats on every evaluation.
void report_layers(const Options& opts, const Window& w,
                   const LayerProbe& probe, const std::string& render,
                   Results& results, SpanLog& spans) {
    const double triad = probe_host(results, spans);
    const LayerTimes t = probe_layers(probe, triad, results, spans);
    probe_protocol(opts.data, render, results, spans);
    probe_serve_layers(opts, results, spans);
    report_process(w.used, w.sample_ms.size() + w.traced_ms.size(), results);
    double explained = t.estimators_ms + t.bootstrap_ms + t.render_ms;
    if (probe.per_chunk) explained += t.store_read_ms + t.qhat_ms;
    report_ledger(median(w.sample_ms), explained, median(w.traced_ms),
                  median(w.sample_ms), results);
}

} // namespace

void run_eval_batch(const Options& opts, Results& results, SpanLog& spans) {
    const std::vector<std::string> paths = store::find_shards(opts.data);
    core::EvaluationConfig config;
    config.ci_replicates = kEvalReplicates;

    // Gate (a): the streaming engine over the same full-trace model must
    // reproduce evaluate_seeded bit for bit (the streaming.h contract).
    const std::uint64_t check_seed = mix_seed(opts.seed, 0);
    core::PolicyEvaluation reference;
    {
        const store::ShardedStore store(paths);
        Trace trace = store.read_all();
        const auto policy =
            core::parse_policy_spec(kEvalPolicy, trace, store.num_decisions());
        const core::Evaluator evaluator(std::move(trace), config,
                                        stats::Rng(1));
        reference = evaluator.evaluate_seeded(*policy, stats::Rng(check_seed),
                                              kEvalReplicates);
        core::StreamingOptions options;
        options.ci_replicates = kEvalReplicates;
        const store::StoreTupleSource source(store);
        const core::PolicyEvaluation streamed = core::evaluate_streaming(
            source, evaluator.reward_model(), *policy, options,
            stats::Rng(check_seed));
        results.attempted();
        if (!same_bits(reference, streamed))
            results.failed("gate a: evaluate_streaming differs from "
                           "evaluate_seeded at seed " +
                           std::to_string(check_seed));
        write_cli_check(opts,
                        batch_header(store) +
                            core::make_policy_report(kEvalPolicy, reference)
                                .to_text(),
                        {"--ci", std::to_string(kEvalReplicates), "--seed",
                         std::to_string(check_seed)},
                        results);
    }

    // One set-up at a time: the previous one is released before the next
    // is built, so peak RSS holds a single copy of the trace.
    std::unique_ptr<store::ShardedStore> store;
    std::shared_ptr<core::Policy> policy;
    std::unique_ptr<core::Evaluator> evaluator;
    std::string header;
    const auto setup = [&](SpanLog& log) {
        evaluator.reset();
        policy.reset();
        store.reset();
        ScopedSpan all(log, "setup", log.next_trace_id());
        Trace trace;
        {
            ScopedSpan s(log, "store.read_all", all.trace_id(), all.id());
            store = std::make_unique<store::ShardedStore>(paths);
            trace = store->read_all();
        }
        {
            ScopedSpan s(log, "fit.policy", all.trace_id(), all.id());
            policy = core::parse_policy_spec(kEvalPolicy, trace,
                                             store->num_decisions());
        }
        {
            ScopedSpan s(log, "evaluator", all.trace_id(), all.id());
            evaluator = std::make_unique<core::Evaluator>(std::move(trace),
                                                          config,
                                                          stats::Rng(1));
        }
        header = batch_header(*store);
        results.attempted();
        return all.finish();
    };
    const auto sample = [&](std::uint64_t index, SpanLog& log) {
        ScopedSpan all(log, "sample", log.next_trace_id());
        core::PolicyEvaluation result;
        {
            ScopedSpan s(log, "evaluate_seeded", all.trace_id(), all.id());
            result = evaluator->evaluate_seeded(
                *policy, stats::Rng(mix_seed(opts.seed, index)),
                kEvalReplicates);
        }
        {
            ScopedSpan s(log, "render", all.trace_id(), all.id());
            const std::string text =
                header + core::make_policy_report(kEvalPolicy, result).to_text();
        }
        const double ms = all.finish();
        results.attempted();
        if (!same_point_bits(result, reference) || !result.dr_ci)
            results.failed("eval_batch sample " + std::to_string(index) +
                           " differs from the checked evaluation");
        return ms;
    };
    const Window w = run_window(opts, spans, setup, sample);
    report_window(opts, w, results);
    if (!opts.trace) return;

    evaluator.reset(); // the probes build their own
    LayerProbe probe;
    probe.store = store.get();
    probe.policies = {kEvalPolicy};
    probe.fit_rows = store->num_tuples();
    report_layers(opts, w, probe,
                  header +
                      core::make_policy_report(kEvalPolicy, reference).to_text(),
                  results, spans);
}

void run_eval_stream(const Options& opts, Results& results, SpanLog& spans) {
    const std::vector<std::string> paths = store::find_shards(opts.data);
    core::StreamingOptions options;
    options.ci_replicates = kEvalReplicates;

    std::unique_ptr<store::ShardedStore> store;
    std::shared_ptr<core::Policy> policy;
    std::unique_ptr<core::RewardModel> model;
    std::string header;
    // dre_eval --streaming's set-up: open the store, read the fit sample,
    // fit the greedy policy and the reward model on it.
    const auto setup = [&](SpanLog& log) {
        model.reset();
        policy.reset();
        store.reset();
        ScopedSpan all(log, "setup", log.next_trace_id());
        Trace fit_trace;
        {
            ScopedSpan s(log, "store.fit_sample", all.trace_id(), all.id());
            store = std::make_unique<store::ShardedStore>(paths);
            std::vector<LoggedTuple> head;
            store->read_rows(0, std::min(kStreamFitRows, store->num_tuples()),
                             head);
            fit_trace = Trace(std::move(head));
        }
        {
            ScopedSpan s(log, "fit.policy", all.trace_id(), all.id());
            policy = core::parse_policy_spec(kEvalPolicy, fit_trace,
                                             store->num_decisions());
        }
        {
            ScopedSpan s(log, "fit.model", all.trace_id(), all.id());
            model = core::fit_reward_model(core::RewardModelKind::kTabular,
                                           store->num_decisions(), fit_trace);
        }
        header = stream_header(*store);
        results.attempted();
        return all.finish();
    };
    const auto evaluate = [&](std::uint64_t seed, SpanLog& log,
                              std::uint64_t trace_id, std::uint64_t parent) {
        ScopedSpan s(log, "evaluate_streaming", trace_id, parent);
        const store::StoreTupleSource source(*store);
        core::StreamingResult r = core::evaluate_streaming_guarded(
            source, *model, *policy, options, stats::Rng(seed));
        if (!r.quarantine.empty())
            results.failed("eval_stream quarantined tuples of a clean trace");
        return r.evaluation;
    };

    // The check evaluation (sample 0): gate b's render, and the point
    // estimates every later sample must reproduce.
    const std::uint64_t check_seed = mix_seed(opts.seed, 0);
    SpanLog untraced(false);
    setup(untraced);
    const core::PolicyEvaluation reference =
        evaluate(check_seed, untraced, 0, 0);
    results.attempted();
    write_cli_check(opts,
                    header +
                        core::make_policy_report(kEvalPolicy, reference)
                            .to_text(),
                    {"--ci", std::to_string(kEvalReplicates), "--seed",
                     std::to_string(check_seed), "--streaming"},
                    results);

    const auto sample = [&](std::uint64_t index, SpanLog& log) {
        ScopedSpan all(log, "sample", log.next_trace_id());
        const core::PolicyEvaluation result = evaluate(
            mix_seed(opts.seed, index), log, all.trace_id(), all.id());
        {
            ScopedSpan s(log, "render", all.trace_id(), all.id());
            const std::string text =
                header + core::make_policy_report(kEvalPolicy, result).to_text();
        }
        const double ms = all.finish();
        results.attempted();
        if (!same_point_bits(result, reference) || !result.dr_ci)
            results.failed("eval_stream sample " + std::to_string(index) +
                           " differs from the checked evaluation");
        return ms;
    };
    const Window w = run_window(opts, spans, setup, sample);
    report_window(opts, w, results);
    if (!opts.trace) return;

    LayerProbe probe;
    probe.store = store.get();
    probe.policies = {kEvalPolicy};
    probe.fit_rows = kStreamFitRows;
    probe.per_chunk = true;
    report_layers(opts, w, probe,
                  header +
                      core::make_policy_report(kEvalPolicy, reference).to_text(),
                  results, spans);
}

} // namespace perfbench
