// Shared pieces of the repository benchmark: options, clocks, order
// statistics, the metric sink that becomes the final JSON line, and the
// benchmark-side spans.
//
// Everything here lives in the benchmark. The libraries under src/ are only
// called through their public entry points; no span or counter is added to
// them.
#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;     // length of the measured window
    bool trace = false;        // traced run: print the per-layer ledger
    std::string data;          // shard prefix written by `perfbench prepare`
    std::string out_dir;       // check renders and the chrome trace go here
};

// dre::obs's steady clock, so the spans the benchmark records line up.
inline std::int64_t now_ns() {
    return static_cast<std::int64_t>(dre::obs::now_ns());
}
inline double ms_between(std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / 1e6;
}

// Type-7 (linear interpolation) quantile, as numpy's default. Empty input
// gives 0.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

// Independent, reproducible per-sample seeds derived from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

// FNV-1a over the bytes of `text`, chained from `hash`.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

// getrusage(RUSAGE_SELF) in the units the ledger reports.
struct Usage {
    double cpu_s = 0.0;
    double minflt = 0.0;
    double maxrss_mb = 0.0;
};
Usage usage_now();
// Adds the CPU time and minor faults spent since `before` to `sum`, so a
// ledger can bracket the measured calls only and leave set-ups out.
void add_usage_since(const Usage& before, Usage& sum);

// Collects the run's outcome: operations attempted and failed, and named
// metrics with units. Failures are also printed to stderr as they happen.
class Results {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    void attempted(std::uint64_t n = 1) { attempted_ += n; }
    // A wrong output: counts as a failed operation and makes the run
    // incorrect.
    void failed(const std::string& what);
    // An operation the program refused or did not finish (overload,
    // deadline, lost connection): failed, but no output was wrong.
    void refused(const std::string& what);
    bool correct() const noexcept { return wrong_ == 0; }
    // One JSON object: {"correct", "attempted", "failed", "metrics"}.
    std::string json() const;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t wrong_ = 0;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

// Benchmark-side spans: name, trace id (one per sample or request), span id,
// parent span id, start and end. The ids are the benchmark's own; each span
// goes to dre::obs's per-thread trace buffer through its public
// obs::record_trace_event, and main() exports the buffer once, at the end of
// a traced run, with obs::write_chrome_trace_file. The libraries' own
// tracing stays switched off, so the file holds only these spans. A
// disabled log records nothing.
class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    bool enabled() const noexcept { return enabled_; }

    // Ids are handed out before a span ends, so children can name an open
    // parent. Both return 0 when the log is disabled.
    std::uint64_t reserve_span_id();
    std::uint64_t next_trace_id();
    void record(const char* name, std::uint64_t trace_id,
                std::uint64_t span_id, std::uint64_t parent,
                std::int64_t start_ns, std::int64_t end_ns) const;

private:
    bool enabled_;
};

// Times one call into a layer and records it as a span when it ends.
class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, const char* name, std::uint64_t trace_id = 0,
               std::uint64_t parent = 0)
        : log_(log), name_(name), trace_id_(trace_id), parent_(parent),
          id_(log.reserve_span_id()), start_(now_ns()) {}
    ~ScopedSpan() { finish(); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    // Ends the span (only the first call counts) and returns its duration
    // in milliseconds.
    double finish();
    std::uint64_t id() const noexcept { return id_; }
    std::uint64_t trace_id() const noexcept { return trace_id_; }

private:
    SpanLog& log_;
    const char* name_;
    std::uint64_t trace_id_, parent_, id_;
    std::int64_t start_;
    std::int64_t end_ = 0;
};

bool write_text_file(const std::string& path, const std::string& text);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_H
