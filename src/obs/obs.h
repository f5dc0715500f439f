// Umbrella header for `dre::obs` — the instrumentation entry point.
//
// Include this (not metrics.h/span.h directly) from instrumented code and
// use the macros below. Each macro resolves its metric once per call site
// via a function-local static reference, so the steady-state hot-path cost
// is a single relaxed atomic op (counters/gauges) or two clock reads plus
// one histogram record (spans).
//
// Determinism contract: obs is strictly read-only with respect to results.
// Counters that feed the cross-thread-count fingerprint must be per-item
// deterministic (per-query / per-tuple / per-replicate sums); anything that
// depends on chunk geometry or timing (pool queue depths, idle time, span
// durations) is diagnostics-only and must never enter a byte-diffed file.
#ifndef DRE_OBS_OBS_H
#define DRE_OBS_OBS_H

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace_context.h"

#define DRE_OBS_CONCAT_INNER(a, b) a##b
#define DRE_OBS_CONCAT(a, b) DRE_OBS_CONCAT_INNER(a, b)

// Add `n` to the named counter. Name must be a string literal.
#define DRE_COUNTER_ADD(name, n)                                              \
    do {                                                                      \
        static ::dre::obs::Counter& DRE_OBS_CONCAT(dre_obs_counter_,          \
                                                   __LINE__) =                \
            ::dre::obs::registry().counter(name);                             \
        DRE_OBS_CONCAT(dre_obs_counter_, __LINE__)                            \
            .add(static_cast<std::uint64_t>(n));                              \
    } while (0)

#define DRE_COUNTER_INC(name) DRE_COUNTER_ADD(name, 1)

// Set the named gauge to `v` (double).
#define DRE_GAUGE_SET(name, v)                                                \
    do {                                                                      \
        static ::dre::obs::Gauge& DRE_OBS_CONCAT(dre_obs_gauge_, __LINE__) =  \
            ::dre::obs::registry().gauge(name);                               \
        DRE_OBS_CONCAT(dre_obs_gauge_, __LINE__)                              \
            .set(static_cast<double>(v));                                     \
    } while (0)

// Record `v` (double) into the named histogram.
#define DRE_HIST_RECORD(name, v)                                              \
    do {                                                                      \
        static ::dre::obs::Histogram& DRE_OBS_CONCAT(dre_obs_hist_,           \
                                                     __LINE__) =              \
            ::dre::obs::registry().histogram(name);                           \
        DRE_OBS_CONCAT(dre_obs_hist_, __LINE__)                               \
            .record(static_cast<double>(v));                                  \
    } while (0)

// RAII span covering the rest of the enclosing scope. One per scope per
// line; the name must be a string literal.
#define DRE_SPAN(name)                                                        \
    static ::dre::obs::SpanStat& DRE_OBS_CONCAT(dre_obs_span_stat_,           \
                                                __LINE__) =                   \
        ::dre::obs::registry().span_stat(name);                               \
    ::dre::obs::ScopedSpan DRE_OBS_CONCAT(dre_obs_span_, __LINE__)(           \
        name, DRE_OBS_CONCAT(dre_obs_span_stat_, __LINE__))

#endif // DRE_OBS_OBS_H
