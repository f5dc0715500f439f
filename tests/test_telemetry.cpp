// dre::obs v2 telemetry primitives: trace-context propagation (including
// across the dre::par pool), histogram snapshot quantiles and delta
// windows, the OpenMetrics renderer and its parser, dre_top's window rules
// between two scrapes, and the journal line schema. None of this may
// perturb evaluation results — the serve-side byte-identity cases live in
// test_serve.cpp.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "serve/journal.h"

namespace {

using namespace dre;

// --- trace context ----------------------------------------------------------

TEST(TraceContextTest, DefaultIsZeroAndFalsy) {
    EXPECT_EQ(obs::current_trace_context().trace_id, 0u);
    EXPECT_FALSE(obs::current_trace_context());
}

TEST(TraceContextTest, NextTraceIdIsNonZeroAndDistinct) {
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t id = obs::next_trace_id();
        EXPECT_NE(id, 0u);
        EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
    ASSERT_EQ(obs::current_trace_context().trace_id, 0u);
    {
        obs::ScopedTraceContext outer(obs::TraceContext{17});
        EXPECT_EQ(obs::current_trace_context().trace_id, 17u);
        {
            obs::ScopedTraceContext inner(obs::TraceContext{99});
            EXPECT_EQ(obs::current_trace_context().trace_id, 99u);
        }
        EXPECT_EQ(obs::current_trace_context().trace_id, 17u);
    }
    EXPECT_EQ(obs::current_trace_context().trace_id, 0u);
}

TEST(TraceContextTest, ContextIsPerThread) {
    obs::ScopedTraceContext scope(obs::TraceContext{42});
    std::uint64_t other_thread_id = 1; // sentinel: must become 0
    std::thread([&] {
        other_thread_id = obs::current_trace_context().trace_id;
    }).join();
    EXPECT_EQ(other_thread_id, 0u);
    EXPECT_EQ(obs::current_trace_context().trace_id, 42u);
}

TEST(TraceContextTest, PoolWorkersAdoptSubmitterContext) {
    // parallel_for bodies run on pool workers (and the caller); every one
    // of them must observe the submitting thread's trace context.
    obs::ScopedTraceContext scope(obs::TraceContext{7777});
    std::vector<std::uint64_t> seen(64, 0);
    par::parallel_for(seen.size(), [&](std::size_t i) {
        seen[i] = obs::current_trace_context().trace_id;
    });
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 7777u) << "index " << i;
}

TEST(TraceContextTest, SpansRecordCurrentTraceId) {
    obs::set_trace_enabled(true);
    {
        obs::ScopedTraceContext scope(obs::TraceContext{0xabcd});
        DRE_SPAN("telemetry.outer");
        DRE_SPAN("telemetry.inner");
    }
    obs::set_trace_enabled(false);
    const std::string json = obs::chrome_trace_json();
    // Both spans tagged with the context id; the inner span parented under
    // the outer one (ids render as hex strings).
    EXPECT_NE(json.find("telemetry.outer"), std::string::npos);
    EXPECT_NE(json.find("telemetry.inner"), std::string::npos);
    EXPECT_NE(json.find("\"trace_id\":\"0xabcd\""), std::string::npos);
}

// --- histogram snapshot -----------------------------------------------------

TEST(HistogramSnapshotTest, SingleValueQuantilesAreExact) {
    obs::Histogram h;
    h.record(7.0);
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
}

TEST(HistogramSnapshotTest, MidpointInterpolationCentersTheBucket) {
    // 100 samples all in bucket [64, 128): the old estimator answered the
    // bucket's upper edge for every quantile; midpoint-rank interpolation
    // must spread estimates across the bucket and center the median.
    obs::Histogram h;
    for (int i = 0; i < 100; ++i) h.record(100.0);
    const obs::HistogramSnapshot s = h.snapshot();
    const double p50 = s.quantile(0.5);
    EXPECT_GE(p50, 64.0);
    EXPECT_LT(p50, 128.0);
    // min/max clamp: every recorded value was 100, so the extremes tighten
    // the bucket-interpolated estimate to exactly 100.
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_LT(s.quantile(0.25), s.quantile(0.75) + 1e-12);
}

TEST(HistogramSnapshotTest, UniformSamplesGiveOrderedQuantiles) {
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
    const obs::HistogramSnapshot s = h.snapshot();
    const double p25 = s.quantile(0.25);
    const double p50 = s.quantile(0.5);
    const double p90 = s.quantile(0.9);
    EXPECT_LE(p25, p50);
    EXPECT_LE(p50, p90);
    // Power-of-two buckets are coarse, but the median of 1..1000 must land
    // within its bucket [512, 1000].
    EXPECT_GT(p50, 256.0);
    EXPECT_LE(p50, 1000.0);
}

TEST(HistogramSnapshotTest, DeltaSinceIsolatesTheWindow) {
    obs::Histogram h;
    for (int i = 0; i < 10; ++i) h.record(2.0);
    const obs::HistogramSnapshot before = h.snapshot();
    for (int i = 0; i < 30; ++i) h.record(500.0);
    const obs::HistogramSnapshot window = h.snapshot().delta_since(before);
    EXPECT_EQ(window.count, 30u);
    EXPECT_DOUBLE_EQ(window.sum, 30 * 500.0);
    // The window holds only the new samples, so its quantiles must come
    // from the [256, 512) bucket — the old 2.0 mass cancels out.
    EXPECT_GT(window.quantile(0.5), 256.0);
    // Extremes are unknowable for a subtracted window.
    EXPECT_FALSE(window.has_extremes);
}

// --- openmetrics ------------------------------------------------------------

TEST(OpenMetricsTest, NameManglingIsSpecCompliant) {
    EXPECT_EQ(obs::openmetrics_name("serve.request_ms"),
              "dre_serve_request_ms");
    EXPECT_EQ(obs::openmetrics_name("weird-name!x"), "dre_weird_name_x");
}

TEST(OpenMetricsTest, RenderedExpositionHasTypedFamiliesAndEof) {
    DRE_COUNTER_ADD("telemetry_test.hits", 3);
    DRE_GAUGE_SET("telemetry_test.level", 1.5);
    DRE_HIST_RECORD("telemetry_test.lat_ms", 10.0);
    DRE_HIST_RECORD("telemetry_test.lat_ms", 20.0);
    const std::string text = obs::render_openmetrics();

    EXPECT_NE(text.find("# TYPE dre_telemetry_test_hits counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("dre_telemetry_test_hits_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dre_telemetry_test_level gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dre_telemetry_test_lat_ms histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("dre_telemetry_test_lat_ms_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("dre_telemetry_test_lat_ms_count 2\n"),
              std::string::npos);
    // Exactly one EOF marker, at the very end.
    EXPECT_TRUE(text.size() >= 6 &&
                text.compare(text.size() - 6, 6, "# EOF\n") == 0);
    EXPECT_EQ(text.find("# EOF\n"), text.size() - 6);
}

TEST(OpenMetricsTest, HistogramBucketsAreCumulative) {
    DRE_HIST_RECORD("telemetry_test.cum_ms", 1.0);
    DRE_HIST_RECORD("telemetry_test.cum_ms", 100.0);
    DRE_HIST_RECORD("telemetry_test.cum_ms", 10000.0);
    const std::string text = obs::render_openmetrics();
    // Walk this family's bucket lines in order; counts must not decrease.
    const std::string needle = "dre_telemetry_test_cum_ms_bucket{le=\"";
    std::size_t pos = 0;
    std::uint64_t prev = 0;
    int buckets = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        const std::size_t value_at = text.find("} ", pos);
        ASSERT_NE(value_at, std::string::npos);
        const std::uint64_t count = std::stoull(text.substr(value_at + 2));
        EXPECT_GE(count, prev);
        prev = count;
        ++buckets;
        pos = value_at;
    }
    EXPECT_GE(buckets, 2);
    EXPECT_EQ(prev, 3u); // +Inf bucket holds everything
}

// Every family of the rendered registry reads back with the registry's own
// values: counters, gauges, histogram buckets, sum and count, and span
// duration histograms.
TEST(OpenMetricsTest, ParseReadsBackTheRenderedRegistry) {
    DRE_COUNTER_ADD("telemetry_test.parsed_hits", 7);
    DRE_GAUGE_SET("telemetry_test.parsed_level", -2.75);
    for (const double v : {0.5, 3.0, 3.0, 100.0, 70000.0})
        DRE_HIST_RECORD("telemetry_test.parsed_ms", v);
    { DRE_SPAN("telemetry_test.parsed_span"); }

    const obs::Registry& reg = obs::registry();
    const obs::Scrape scrape = obs::parse_openmetrics(obs::render_openmetrics());

    const std::vector<obs::CounterSample> counters = reg.counters();
    EXPECT_EQ(scrape.counters.size(), counters.size());
    for (const obs::CounterSample& c : counters)
        EXPECT_EQ(scrape.counters.at(obs::openmetrics_name(c.name)), c.value)
            << c.name;
    const std::vector<obs::GaugeSample> gauges = reg.gauges();
    EXPECT_EQ(scrape.gauges.size(), gauges.size());
    for (const obs::GaugeSample& g : gauges)
        EXPECT_EQ(scrape.gauges.at(obs::openmetrics_name(g.name)), g.value)
            << g.name;
    auto histograms = reg.histogram_snapshots();
    for (const auto& [name, snapshot] : reg.span_duration_snapshots())
        histograms.emplace_back("span." + name + "_ns", snapshot);
    EXPECT_EQ(scrape.histograms.size(), histograms.size());
    for (const auto& [name, snapshot] : histograms) {
        const obs::HistogramSnapshot& back =
            scrape.histograms.at(obs::openmetrics_name(name));
        EXPECT_EQ(back.buckets, snapshot.buckets) << name;
        EXPECT_EQ(back.count, snapshot.count) << name;
        EXPECT_EQ(back.sum, snapshot.sum) << name;
        EXPECT_FALSE(back.has_extremes) << name;
    }
    EXPECT_EQ(scrape.gauges.at("dre_telemetry_test_parsed_level"), -2.75);
    EXPECT_EQ(scrape.histograms.at("dre_telemetry_test_parsed_ms").count, 5u);
    EXPECT_GE(scrape.histograms.at("dre_span_telemetry_test_parsed_span_ns")
                  .count,
              1u);
}

TEST(OpenMetricsTest, ParseRejectsWhatTheRendererNeverWrites) {
    for (const char* text : {
             "# TYPE dre_c counter\ndre_c_total 1\n",   // no # EOF
             "dre_c_total 1\n# EOF\n",                  // no family
             "# TYPE dre_c counter\ndre_c_total x\n# EOF\n",
             "# TYPE dre_c summary\n# EOF\n",
             "# TYPE dre_h histogram\ndre_h_bucket{le=\"3\"} 1\n# EOF\n",
             "# TYPE dre_h histogram\ndre_h_bucket{le=\"1\"} 2\n"
             "dre_h_bucket{le=\"2\"} 1\n# EOF\n",
             "# EOF\n# TYPE dre_g gauge\n",
         })
        EXPECT_THROW((void)obs::parse_openmetrics(text), std::runtime_error)
            << text;
}

// --- dre_top's window rules -------------------------------------------------

double series(const std::vector<std::pair<std::string, double>>& rows,
              const std::string& name) {
    for (const auto& [row, value] : rows)
        if (row == name) return value;
    ADD_FAILURE() << "no series " << name;
    return -1.0;
}

TEST(WindowSeriesTest, CounterRateUsesTheScrapeInterval) {
    obs::Scrape before;
    before.counters["dre_c"] = 100;
    before.counters["dre_restarted"] = 50;
    obs::Scrape after;
    after.counters["dre_c"] = 600; // +500 over 2 s
    after.counters["dre_restarted"] = 10;
    after.counters["dre_new"] = 30; // counted from zero
    const auto rows = obs::window_series(before, after, 2000.0);
    EXPECT_DOUBLE_EQ(series(rows, "dre_c_total.rate"), 250.0);
    EXPECT_EQ(series(rows, "dre_restarted_total.rate"), 0.0);
    EXPECT_DOUBLE_EQ(series(rows, "dre_new_total.rate"), 15.0);
}

TEST(WindowSeriesTest, FirstScrapeHasZeroRatesAndWholeHistogramQuantiles) {
    obs::Histogram h;
    for (const double v : {1.0, 2.0, 40.0, 300.0}) h.record(v);
    obs::Scrape first;
    first.counters["dre_c"] = 600;
    first.gauges["dre_g"] = 4.5;
    first.histograms["dre_h_ms"] = h.snapshot();
    const auto rows = obs::window_series({}, first, 0.0);
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(series(rows, "dre_c_total.rate"), 0.0);
    EXPECT_EQ(series(rows, "dre_g"), 4.5);
    EXPECT_EQ(series(rows, "dre_h_ms_count.rate"), 0.0);
    EXPECT_EQ(series(rows, "dre_h_ms.p50"), h.snapshot().p50());
    EXPECT_EQ(series(rows, "dre_h_ms.p99"), h.snapshot().p99());
}

TEST(WindowSeriesTest, LaterScrapeQuantilesAreThoseOfTheDelta) {
    obs::Histogram h;
    for (int i = 0; i < 10; ++i) h.record(2.0);
    obs::Scrape before;
    before.histograms["dre_h_ms"] = h.snapshot();
    for (int i = 0; i < 30; ++i) h.record(500.0);
    obs::Scrape after;
    after.histograms["dre_h_ms"] = h.snapshot();
    const obs::HistogramSnapshot delta =
        after.histograms["dre_h_ms"].delta_since(before.histograms["dre_h_ms"]);

    const auto rows = obs::window_series(before, after, 500.0);
    EXPECT_DOUBLE_EQ(series(rows, "dre_h_ms_count.rate"), 60.0); // 30 in 0.5 s
    EXPECT_EQ(series(rows, "dre_h_ms.p50"), delta.p50());
    EXPECT_EQ(series(rows, "dre_h_ms.p99"), delta.p99());
    EXPECT_GT(delta.p50(), 256.0); // the earlier 2.0 mass is outside
}

// --- journal line schema ----------------------------------------------------

TEST(JournalTest, LineIsOneJsonObjectWithTheDocumentedKeys) {
    serve::JournalRecord rec;
    rec.trace_id = 0xdeadbeef;
    rec.trace = "t.csv";
    rec.policy = "greedy:tabular";
    rec.model = "tabular";
    rec.seed = 3;
    rec.ci_replicates = 0;
    rec.total_ms = 12.5;
    rec.queue_ms = 1.5;
    rec.cache_ms = 2.0;
    rec.compute_ms = 8.0;
    rec.serialize_ms = 1.0;
    rec.trace_hit = true;
    rec.coalesced = true;
    rec.waiters = 3;
    const std::string line = serve::journal_line_json(rec, 1234);
    // Flat object, no embedded newline (JSONL contract).
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key :
         {"\"ts_ms\":", "\"trace_id\":", "\"trace\":", "\"policy\":",
          "\"model\":", "\"seed\":", "\"ci\":", "\"outcome\":",
          "\"error_code\":", "\"total_ms\":", "\"queue_ms\":",
          "\"cache_ms\":", "\"compute_ms\":", "\"serialize_ms\":",
          "\"trace_hit\":", "\"policy_hit\":", "\"evaluator_hit\":",
          "\"coalesced\":", "\"waiters\":"}) {
        EXPECT_NE(line.find(key), std::string::npos) << "missing " << key;
    }
    EXPECT_EQ(line.find("quarantined"), std::string::npos) << line;
    EXPECT_NE(line.find("\"trace_id\":\"0xdeadbeef\""), std::string::npos);
    EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos);
    EXPECT_NE(line.find("\"coalesced\":true"), std::string::npos);
}

TEST(JournalTest, ErrorOutcomeCarriesTheCode) {
    serve::JournalRecord rec;
    rec.trace_id = 1;
    rec.error_code = "overloaded";
    rec.error = "queue full";
    const std::string line = serve::journal_line_json(rec, 0);
    EXPECT_NE(line.find("\"outcome\":\"error\""), std::string::npos);
    EXPECT_NE(line.find("\"error_code\":\"overloaded\""), std::string::npos);
    EXPECT_NE(line.find("\"error\":\"queue full\""), std::string::npos);
}

TEST(JournalTest, ThresholdGatesFastRequestsButNeverErrors) {
    const std::string path =
        (std::string(::testing::TempDir()) + "dre_journal_gate.jsonl");
    std::remove(path.c_str());
    {
        serve::RequestJournal journal(path, /*threshold_ms=*/100.0);
        ASSERT_TRUE(journal.ok());
        serve::JournalRecord fast;
        fast.total_ms = 5.0;
        journal.log(fast); // below threshold, no error: skipped
        serve::JournalRecord slow;
        slow.total_ms = 250.0;
        journal.log(slow); // above threshold: logged
        serve::JournalRecord failed;
        failed.total_ms = 1.0;
        failed.error_code = "internal";
        journal.log(failed); // fast but failed: always logged
        EXPECT_EQ(journal.lines_written(), 2u);
    }
    std::remove(path.c_str());
}

} // namespace
