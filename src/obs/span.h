// Scoped tracing for `dre::obs`.
//
// `DRE_SPAN("knn.query")` (obs/obs.h) opens an RAII span: on destruction the
// duration is folded into the span's aggregated profile (a duration
// histogram: count, sum and quantiles on scrape), and — only when tracing has been
// switched on with set_trace_enabled(true) — a trace event is appended to a
// per-thread buffer. Each event carries the request's TraceContext plus a
// span_id / parent_span_id pair maintained on a thread-local span stack, so
// the export reconstructs per-request span trees: filter on trace_id, link
// children to parents. The buffers export as chrome://tracing JSON (load
// trace.json at chrome://tracing or ui.perfetto.dev; the ids ride in each
// event's "args").
//
// Cost model: profile recording is one histogram record plus two
// steady_clock reads per span, so spans belong around coarse units (a query
// batch, an estimator pass, a bootstrap chunk), never per tuple. Trace
// events additionally take a span-id allocation and an uncontended
// per-thread mutex, paid only while tracing is on.
#ifndef DRE_OBS_SPAN_H
#define DRE_OBS_SPAN_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace dre::obs {

// Nanoseconds since the first call in this process (steady clock).
std::uint64_t now_ns() noexcept;

// Global switch for trace-event collection (the aggregated span profile is
// always on). Off by default; `dre_eval --trace-out`, `dre_serve
// --trace-out`, and the bench harnesses flip it.
void set_trace_enabled(bool enabled) noexcept;
bool trace_enabled() noexcept;

struct TraceEvent {
    const char* name = nullptr; // string literal from the DRE_SPAN site
    std::uint32_t tid = 0;      // process-local thread id (not the OS tid)
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t trace_id = 0;       // owning request; 0 = untraced work
    std::uint64_t span_id = 0;        // unique per event, never 0 once traced
    std::uint64_t parent_span_id = 0; // enclosing open span; 0 = tree root
};

// The innermost open traced span on the calling thread (0 when none) — the
// parent that a manually recorded event should link to.
std::uint64_t current_span_id() noexcept;

// Append one completed span to the calling thread's buffer, stamping the
// current TraceContext, a fresh span_id, and parent = current_span_id().
// For one-off events (queue wait) that have no enclosing ScopedSpan scope;
// instrumentation goes through ScopedSpan.
void record_trace_event(const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns) noexcept;

// Fully-specified form used by ScopedSpan, which allocated its ids at
// construction so children observed the right parent.
void record_trace_event(const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t trace_id,
                        std::uint64_t span_id,
                        std::uint64_t parent_span_id) noexcept;

// Snapshot of all threads' events, sorted by (tid, start, -end) so a parent
// span always precedes its children.
std::vector<TraceEvent> trace_events();

// Drop all buffered events (the buffers themselves persist).
void clear_trace_events();

// chrome://tracing JSON ({"traceEvents": [...]}, complete "X" events,
// timestamps in microseconds, trace/span ids as hex strings in "args").
std::string chrome_trace_json();
bool write_chrome_trace_file(const std::string& path);

// RAII span. Use via DRE_SPAN so the SpanStat lookup happens once per call
// site; `name` must outlive the process (string literals do).
class ScopedSpan {
public:
    ScopedSpan(const char* name, SpanStat& stat) noexcept
        : name_(name), stat_(stat), start_ns_(now_ns()) {
        if (trace_enabled()) {
            trace_id_ = current_trace_context().trace_id;
            span_id_ = begin_traced_span(&parent_span_id_);
        }
    }
    ~ScopedSpan() {
        const std::uint64_t end = now_ns();
        stat_.record(end - start_ns_);
        // span_id_ stays 0 when tracing was off at construction, so a
        // mid-span toggle can never unbalance the thread's span stack.
        if (span_id_ != 0) {
            record_trace_event(name_, start_ns_, end, trace_id_, span_id_,
                               parent_span_id_);
            end_traced_span();
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    // Pushes a fresh span id onto the calling thread's span stack and
    // returns it; *parent_span_id receives the previous top (0 at root).
    static std::uint64_t begin_traced_span(
        std::uint64_t* parent_span_id) noexcept;
    static void end_traced_span() noexcept;

    const char* name_;
    SpanStat& stat_;
    std::uint64_t start_ns_;
    std::uint64_t trace_id_ = 0;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_span_id_ = 0;
};

} // namespace dre::obs

#endif // DRE_OBS_SPAN_H
