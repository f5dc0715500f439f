// Isolated layer probes for the traced runs: each public entry point is
// called on the workload's own input, the way the workload's evaluation
// calls it, and timed from outside.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/estimators.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy_learning.h"
#include "core/qhat.h"
#include "core/streaming.h"
#include "serve/protocol.h"
#include "stats/bootstrap.h"
#include "workloads.h"
#include "yardstick.h"

namespace perfbench {

using namespace dre;

namespace {

constexpr int kRepeats = 3; // isolated calls per layer; the median is kept

// Forwards every query to the wrapped policy and counts them. The
// estimators call the policy only through these virtuals, so the results
// are those of the wrapped policy.
class CountingPolicy final : public core::Policy {
public:
    explicit CountingPolicy(const core::Policy& inner) : inner_(inner) {}

    std::vector<double> action_probabilities(
        const ClientContext& context) const override {
        calls_.fetch_add(1, std::memory_order_relaxed);
        return inner_.action_probabilities(context);
    }
    void action_probabilities_into(const ClientContext& context,
                                   std::vector<double>& out) const override {
        calls_.fetch_add(1, std::memory_order_relaxed);
        inner_.action_probabilities_into(context, out);
    }
    double probability(const ClientContext& context,
                       Decision d) const override {
        calls_.fetch_add(1, std::memory_order_relaxed);
        return inner_.probability(context, d);
    }
    std::size_t num_decisions() const noexcept override {
        return inner_.num_decisions();
    }
    std::uint64_t calls() const noexcept { return calls_.load(); }

private:
    const core::Policy& inner_;
    mutable std::atomic<std::uint64_t> calls_{0};
};

template <typename Fn>
double median_ms(SpanLog& spans, const char* name, int repeats, Fn&& fn) {
    std::vector<double> times;
    for (int r = 0; r < repeats; ++r) {
        ScopedSpan span(spans, name, spans.next_trace_id());
        fn();
        times.push_back(span.finish());
    }
    return median(times);
}

std::size_t chunk_count(std::uint64_t n) {
    return static_cast<std::size_t>((n + par::kReduceChunk - 1) /
                                    par::kReduceChunk);
}

} // namespace

LayerTimes probe_layers(const LayerProbe& probe, double triad_mib_s,
                        Results& results, SpanLog& spans) {
    const store::ShardedStore& store = *probe.store;
    const std::uint64_t n = store.num_tuples();
    const std::size_t decisions = store.num_decisions();
    const std::size_t chunks = chunk_count(n);
    LayerTimes times;

    // store: whole-trace decode, and one pass of the streaming source in
    // reduction chunks (the streaming engine's read pattern, on the pool).
    Trace full;
    const double read_all_ms = median_ms(spans, "store.read_all", kRepeats,
                                         [&] { full = store.read_all(); });
    const store::StoreTupleSource source(store);
    std::vector<std::vector<LoggedTuple>> chunk_rows(chunks);
    times.store_read_ms = median_ms(spans, "store.read", kRepeats, [&] {
        par::parallel_for(chunks, [&](std::size_t c) {
            const std::uint64_t begin = c * par::kReduceChunk;
            source.read(begin, std::min<std::uint64_t>(par::kReduceChunk,
                                                       n - begin),
                        chunk_rows[c]);
        });
    });
    std::uint64_t shard_bytes = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s)
        shard_bytes += std::filesystem::file_size(store.shard(s).path());
    const double decode_mib_s = static_cast<double>(shard_bytes) /
                                (1024.0 * 1024.0) /
                                (times.store_read_ms / 1e3);
    results.metric("store.read_all_ms", read_all_ms, "ms");
    results.metric("store.read_ms", times.store_read_ms, "ms");
    results.metric("store.decode_mib_s", decode_mib_s, "MiB/s");
    results.metric("store.decode_pct_triad", 100.0 * decode_mib_s / triad_mib_s,
                   "%");

    // core fit: the policy specs and the tabular reward model, on the rows
    // the workload fits on.
    Trace fit_trace;
    if (probe.fit_rows >= n) {
        fit_trace = full;
    } else {
        std::vector<LoggedTuple> head;
        store.read_rows(0, probe.fit_rows, head);
        fit_trace = Trace(std::move(head));
    }
    std::vector<std::shared_ptr<core::Policy>> policies;
    const double policy_ms = median_ms(spans, "fit.policy", kRepeats, [&] {
        policies.clear();
        for (const std::string& spec : probe.policies)
            policies.push_back(
                core::parse_policy_spec(spec, fit_trace, decisions));
    });
    std::unique_ptr<core::RewardModel> model;
    const double model_ms = median_ms(spans, "fit.model", kRepeats, [&] {
        model = core::fit_reward_model(core::RewardModelKind::kTabular,
                                       decisions, fit_trace);
    });
    results.metric("fit.policy_ms", policy_ms, "ms");
    results.metric("fit.model_ms", model_ms, "ms");

    // q̂: the whole trace once (in-memory engine) or each chunk (streaming).
    std::vector<Trace> chunk_traces;
    if (probe.per_chunk) {
        chunk_traces.reserve(chunks);
        for (auto& rows : chunk_rows) chunk_traces.emplace_back(std::move(rows));
    }
    std::vector<core::PredictionMatrix> chunk_qhat(chunks);
    core::PredictionMatrix qhat;
    times.qhat_ms = median_ms(spans, "qhat.build", kRepeats, [&] {
        if (probe.per_chunk) {
            par::parallel_for(chunks, [&](std::size_t c) {
                chunk_qhat[c] =
                    core::PredictionMatrix::build(*model, chunk_traces[c]);
            });
        } else {
            qhat = core::PredictionMatrix::build(*model, full);
        }
    });
    const double cells = static_cast<double>(n * decisions);
    results.metric("qhat.ms", times.qhat_ms, "ms");
    results.metric("qhat.mcells_s", cells / 1e6 / (times.qhat_ms / 1e3),
                   "Mcells/s");
    results.metric("qhat.write_pct_triad",
                   100.0 * (cells * sizeof(double) / (1024.0 * 1024.0) /
                            (times.qhat_ms / 1e3)) /
                       triad_mib_s,
                   "%");

    // estimators: evaluate_seeded without a bootstrap (the six-sweep
    // in-memory engine), or fill_estimator_chunk per chunk (the fused
    // streaming sweep). The DR per-tuple values feed the bootstrap probe.
    std::vector<double> dr_values;
    core::PolicyEvaluation point;
    const core::EstimatorOptions estimator_options;
    std::unique_ptr<core::Evaluator> evaluator;
    if (!probe.per_chunk) {
        core::EvaluationConfig config;
        evaluator = std::make_unique<core::Evaluator>(full, config,
                                                      stats::Rng(1));
    }
    std::vector<core::EstimatorChunk> chunk_out(chunks);
    const auto run_estimators = [&](const core::Policy& policy) {
        if (probe.per_chunk) {
            par::parallel_for(chunks, [&](std::size_t c) {
                core::fill_estimator_chunk(chunk_traces[c], policy,
                                           chunk_qhat[c], estimator_options,
                                           chunk_out[c]);
            });
        } else {
            point = evaluator->evaluate_seeded(policy, stats::Rng(1), 0);
        }
    };
    std::vector<double> estimator_times;
    for (const auto& policy : policies) {
        estimator_times.push_back(median_ms(spans, "estimators", kRepeats,
                                            [&] { run_estimators(*policy); }));
    }
    times.estimators_ms = median(estimator_times);
    const CountingPolicy counting(*policies.front());
    run_estimators(counting);
    run_estimators(*policies.front());
    if (probe.per_chunk) {
        for (const auto& c : chunk_out)
            dr_values.insert(dr_values.end(), c.dr.begin(), c.dr.end());
    } else {
        dr_values = point.dr.per_tuple;
    }
    results.metric("estimators.ms", times.estimators_ms, "ms");
    results.metric("estimators.tuples_s",
                   static_cast<double>(n) / (times.estimators_ms / 1e3),
                   "tuples/s");
    results.metric("estimators.policy_calls_per_tuple",
                   static_cast<double>(counting.calls()) /
                       static_cast<double>(n),
                   "calls");

    // stats bootstrap: the chunk-keyed DR interval both engines compute.
    const double dr_mean = par::chunked_mean(dr_values);
    times.bootstrap_ms = median_ms(spans, "bootstrap", kRepeats, [&] {
        stats::Rng rng(1);
        (void)stats::chunked_bootstrap_mean_ci(dr_values, dr_mean, rng,
                                               kEvalReplicates, 0.95);
    });
    results.metric("bootstrap.ms", times.bootstrap_ms, "ms");
    results.metric("bootstrap.mdraws_s",
                   static_cast<double>(kEvalReplicates) *
                       static_cast<double>(n) / 1e6 /
                       (times.bootstrap_ms / 1e3),
                   "Mdraws/s");

    // obs report: the shared renderer behind dre_eval stdout and Result.
    if (probe.per_chunk) {
        // The streaming engine's full result, for a representative render.
        core::StreamingOptions options;
        options.ci_replicates = kEvalReplicates;
        point = core::evaluate_streaming(source, *model, *policies.front(),
                                         options, stats::Rng(1));
    } else {
        point = evaluator->evaluate_seeded(*policies.front(), stats::Rng(1),
                                           kEvalReplicates);
    }
    constexpr int kRenders = 200;
    std::vector<double> render_us;
    for (int r = 0; r < kRenders; ++r) {
        const std::int64_t start = now_ns();
        const std::string text =
            core::make_policy_report(probe.policies.front(), point).to_text();
        render_us.push_back(ms_between(start, now_ns()) * 1e3);
    }
    times.render_ms = median(render_us) / 1e3;
    results.metric("render.us", median(render_us), "us");
    return times;
}

double probe_protocol(const std::string& trace_path,
                      const std::string& result_text, Results& results,
                      SpanLog& spans) {
    serve::EvaluateMsg request;
    request.trace = trace_path;
    request.policy = "constant:3";
    request.seed = 42;
    request.trace_id = 7;
    serve::ResultMsg reply;
    reply.text = result_text;
    reply.dr = 1.5;
    reply.trace_id = 7;

    constexpr int kPairs = 2000;
    std::vector<double> pair_us;
    std::size_t bytes = 0;
    ScopedSpan span(spans, "protocol", spans.next_trace_id());
    for (int i = 0; i < kPairs; ++i) {
        const std::int64_t start = now_ns();
        const auto request_bytes = serve::encode_evaluate(request);
        const auto reply_bytes = serve::encode_result(reply);
        serve::FrameDecoder decoder;
        decoder.feed(request_bytes.data(), request_bytes.size());
        decoder.feed(reply_bytes.data(), reply_bytes.size());
        const auto request_frame = decoder.next();
        const auto reply_frame = decoder.next();
        const serve::EvaluateMsg decoded_request =
            serve::decode_evaluate(*request_frame);
        const serve::ResultMsg decoded_reply =
            serve::decode_result(*reply_frame);
        pair_us.push_back(ms_between(start, now_ns()) * 1e3);
        bytes = request_bytes.size() + reply_bytes.size();
        if (decoded_request.policy != request.policy ||
            decoded_reply.text != reply.text) {
            results.failed("protocol round trip changed a field");
            break;
        }
    }
    span.finish();
    results.metric("protocol.us", median(pair_us), "us");
    results.metric("protocol.bytes", static_cast<double>(bytes), "bytes");
    return median(pair_us) / 1e3;
}

double probe_host(Results& results, SpanLog& spans) {
    // 3 x 16 MiB: larger than the q̂ matrix of a 200k-tuple trace and far
    // above L2, small enough for a shared host.
    constexpr std::size_t kElems = (16u << 20) / sizeof(double);
    std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
    const std::size_t parts = par::thread_count();
    const auto triad = [&] {
        par::parallel_for(parts, [&](std::size_t p) {
            const std::size_t lo = kElems * p / parts;
            const std::size_t hi = kElems * (p + 1) / parts;
            for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
        });
    };
    triad(); // fault the pages in
    const double ms = median_ms(spans, "host.triad", 7, triad);
    if (a[kElems / 2] != 7.0) results.failed("triad probe computed a wrong value");
    const double mib_s = 3.0 * kElems * sizeof(double) / (1024.0 * 1024.0) /
                         (ms / 1e3);
    results.metric("host.triad_mib_s", mib_s, "MiB/s");
    results.metric("host.yardstick_ms",
                   median_ms(spans, "host.yardstick", 15,
                             [] { yardstick_ms(par::thread_count()); }),
                   "ms");
    return mib_s;
}

void report_process(const Usage& used, std::size_t samples, Results& results) {
    const double k = samples == 0 ? 1.0 : static_cast<double>(samples);
    results.metric("proc.cpu_s", used.cpu_s / k, "s");
    results.metric("proc.minflt", used.minflt / k, "count");
}

void report_ledger(double end_to_end_ms, double explained_ms,
                   double traced_ms, double untraced_ms, Results& results) {
    results.metric("ledger.unexplained_pct",
                   100.0 * (end_to_end_ms - explained_ms) / end_to_end_ms, "%");
    results.metric("trace.overhead_pct",
                   100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");
}

} // namespace perfbench
