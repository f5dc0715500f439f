// OpenMetrics text exposition for the `dre::obs` registry (DESIGN.md §13).
//
// render_openmetrics() serializes every registered metric in the
// OpenMetrics 1.0 text format, so a Prometheus-compatible scraper pointed
// at `dre_serve --metrics-port` ingests the registry directly; `dre_eval
// --obs-out` and `dre_tune --obs-out` write the same document to a file:
//
//   * naming: registry names are dotted ("serve.request_ms"); the
//     exposition prefixes "dre_" and maps every non-[a-zA-Z0-9_] byte to
//     '_' ("dre_serve_request_ms"). Units stay encoded in the name suffix
//     (_ms, _ns, _bytes) exactly as registered.
//   * counters export as `# TYPE <name> counter` with the `_total` sample
//     suffix, so a counter's registry name does not end in `_total`
//     ("serve.requests" -> sample `dre_serve_requests_total`); gauges
//     export as plain gauges.
//   * histograms export cumulative `le` buckets on the registry's
//     power-of-two boundaries (only up to the highest occupied bucket,
//     plus "+Inf"), then `_sum` and `_count`.
//   * span profiles export as `dre_span_<name>_ns` histograms of the span
//     duration in nanoseconds.
//
// The document ends with the mandatory `# EOF` terminator. All data comes
// from registry snapshots — rendering never blocks an instrumentation site
// beyond the registry map mutex.
//
// The reading side lives here too, so one module owns the format:
// parse_openmetrics() reads a rendered document back, and window_series()
// turns two consecutive scrapes into the rows `dre_top` shows.
#ifndef DRE_OBS_OPENMETRICS_H
#define DRE_OBS_OPENMETRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dre::obs {

// "serve.request_ms" -> "dre_serve_request_ms".
std::string openmetrics_name(std::string_view registry_name);

// The full exposition document for the process-global registry.
std::string render_openmetrics();

// Writes render_openmetrics() to `path`; false on an I/O failure.
bool write_openmetrics_file(const std::string& path);

// One exposition document read back, keyed by family name
// ("dre_serve_requests"). A histogram is rebuilt bucket by bucket from its
// cumulative `le` lines; the text carries no extremes, so has_extremes
// stays false. Span histograms are histogram families like any other.
struct Scrape {
    std::map<std::string, std::uint64_t> counters; // the `_total` sample
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
};

// Reads what render_openmetrics() writes. Any other line, a non-cumulative
// bucket, an `le` off the registry's bucket bounds or a document that does
// not end in `# EOF` throws std::runtime_error.
Scrape parse_openmetrics(std::string_view text);

// The per-kind rules between two scrapes taken `dt_ms` apart, in the
// order counters, gauges, histograms, each sorted by name:
//   counter    "<family>_total.rate"  increase per second
//   gauge      "<family>"             the scraped value
//   histogram  "<family>_count.rate"  observations per second, plus
//              "<family>.p50" / "<family>.p99" of
//              current.delta_since(previous)
// For the first scrape pass an empty `previous` and dt_ms 0: every rate is
// 0 and the quantiles cover the whole histogram. A family missing from
// `previous` is windowed from zero; a counter that went down (a restarted
// server) reads rate 0.
std::vector<std::pair<std::string, double>> window_series(
    const Scrape& previous, const Scrape& current, double dt_ms);

} // namespace dre::obs

#endif // DRE_OBS_OPENMETRICS_H
