// The benchmark's workloads and the layer probes their traced runs share.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "store/sharded.h"
#include "support.h"

namespace perfbench {

// The evaluation every eval workload times: `dre_eval <shards> greedy:tabular
// --ci 1000`.
inline constexpr const char* kEvalPolicy = "greedy:tabular";
inline constexpr int kEvalReplicates = 1000;
// dre_eval's --fit-sample default, which the streaming workload keeps.
inline constexpr std::uint64_t kStreamFitRows = 100000;

// serve_open's request rotation: `uniform` and `constant:0..11` (the cdn
// world has 12 decisions).
std::vector<std::string> serve_policies();

void run_eval_batch(const Options& opts, Results& results, SpanLog& spans);
void run_eval_stream(const Options& opts, Results& results, SpanLog& spans);
void run_serve_open(const Options& opts, Results& results, SpanLog& spans);

// --- layer probes (layers.cpp) --------------------------------------------
//
// A traced run times each layer's public entry point in isolation on the
// workload's own shards, as its workload uses it, and reports the per-layer
// metrics. The returned times feed the workload's ledger.

struct LayerProbe {
    const dre::store::ShardedStore* store = nullptr;
    std::vector<std::string> policies; // specs the workload evaluates
    std::uint64_t fit_rows = 0;        // rows the model and policy fit on
    bool per_chunk = false;            // q̂ and estimators per 4096-row chunk
};

struct LayerTimes {
    double store_read_ms = 0.0; // one chunked pass of StoreTupleSource::read
    double qhat_ms = 0.0;
    double estimators_ms = 0.0;
    double bootstrap_ms = 0.0;
    double render_ms = 0.0;
};

LayerTimes probe_layers(const LayerProbe& probe, double triad_mib_s,
                        Results& results, SpanLog& spans);

// One Evaluate + Result frame pair through encode and FrameDecoder/decode.
// Returns the time of one pair in milliseconds.
double probe_protocol(const std::string& trace_path,
                      const std::string& result_text, Results& results,
                      SpanLog& spans);

// The host's speed at the time of the traced run. STREAM-triad a[i] = b[i] +
// s*c[i] over the benchmark's thread count, in MiB/s (24 bytes per element,
// as STREAM counts), reported as host.triad_mib_s and returned; and the
// median of 15 yardstick runs (yardstick.h) as host.yardstick_ms.
double probe_host(Results& results, SpanLog& spans);

// getrusage around the measured samples or request blocks only (set-ups
// excluded), summed in `used`: CPU seconds and minor faults per sample or
// request.
void report_process(const Usage& used, std::size_t samples, Results& results);

// The eval workloads' serve layers (serve_workload.cpp): a warm in-process
// server on the workload's shards, one short open-loop block of the serve
// request rotation, and the server, service and generator metrics it
// yields.
void probe_serve_layers(const Options& opts, Results& results,
                        SpanLog& spans);

// ledger.unexplained_pct and trace.overhead_pct.
void report_ledger(double end_to_end_ms, double explained_ms,
                   double traced_ms, double untraced_ms, Results& results);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
