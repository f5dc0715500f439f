// Tests for dre::obs: sharded counters under real pool concurrency, span
// nesting in the trace export, the registry's OpenMetrics round trip, and
// the instrumentation macros.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "obs/openmetrics.h"

namespace dre::obs {
namespace {

// Tracing is process-global; leave it off for every other test.
class ObsTest : public ::testing::Test {
protected:
    void TearDown() override {
        set_trace_enabled(false);
        clear_trace_events();
        par::set_thread_count(0);
    }
};

// --- JSON helper for the chrome trace and JsonWriter tests -----------------

// Minimal structural validator: balanced {} / [] outside strings, legal
// escapes inside. Catches the classic streaming-writer bugs (missing comma
// logic corrupts nesting, unescaped quotes truncate strings).
bool json_balanced(const std::string& json) {
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i; // skip the escaped character
            } else if (c == '"') {
                in_string = false;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // raw control character inside a string
            }
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{': stack.push_back('}'); break;
        case '[': stack.push_back(']'); break;
        case '}':
        case ']':
            if (stack.empty() || stack.back() != c) return false;
            stack.pop_back();
            break;
        default: break;
        }
    }
    return !in_string && stack.empty();
}

// --- Counters --------------------------------------------------------------

TEST_F(ObsTest, CounterSumsExactlyUnderPoolConcurrency) {
    Counter& counter = registry().counter("test.concurrent_counter");
    counter.reset();
    par::set_thread_count(8);
    constexpr std::size_t kItems = 100000;
    par::parallel_for(kItems, [&](std::size_t) { counter.add(1); });
    EXPECT_EQ(counter.value(), kItems);

    // Weighted adds from raw threads (not the pool) must also sum exactly.
    counter.reset();
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) counter.add(3);
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(counter.value(), 8u * 1000u * 3u);
}

TEST_F(ObsTest, CounterResetZeroesButKeepsReferenceValid) {
    Counter& counter = registry().counter("test.reset_counter");
    counter.add(42);
    EXPECT_GE(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
    counter.add(1);
    EXPECT_EQ(counter.value(), 1u);
    // Same name resolves to the same object.
    EXPECT_EQ(&registry().counter("test.reset_counter"), &counter);
}

TEST_F(ObsTest, GaugeIsLastWriterWins) {
    Gauge& gauge = registry().gauge("test.gauge");
    gauge.set(1.5);
    gauge.set(-3.25);
    EXPECT_DOUBLE_EQ(gauge.value(), -3.25);
    gauge.reset();
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

// --- Histograms ------------------------------------------------------------

TEST_F(ObsTest, HistogramTracksCountSumMinMax) {
    Histogram h;
    for (int v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST_F(ObsTest, HistogramQuantilesAreOrderedAndClamped) {
    Histogram h;
    for (int v = 1; v <= 100; ++v) h.record(v);
    const double p0 = h.quantile(0.0);
    const double p50 = h.quantile(0.5);
    const double p99 = h.quantile(0.99);
    const double p100 = h.quantile(1.0);
    EXPECT_LE(p0, p50);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p100);
    // Clamped to the observed range, and the median lands in the right
    // power-of-two bucket neighbourhood (exactness is not promised).
    EXPECT_GE(p0, 1.0);
    EXPECT_LE(p100, 100.0);
    EXPECT_GT(p50, 20.0);
    EXPECT_LT(p50, 80.0);
}

TEST_F(ObsTest, HistogramHandlesDegenerateInputs) {
    Histogram empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.min(), 0.0);
    EXPECT_DOUBLE_EQ(empty.max(), 0.0);

    Histogram single;
    single.record(7.0);
    EXPECT_DOUBLE_EQ(single.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(single.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(single.quantile(1.0), 7.0);

    Histogram negative; // negatives land in the floor bucket, min is honest
    negative.record(-5.0);
    negative.record(2.0);
    EXPECT_DOUBLE_EQ(negative.min(), -5.0);
    EXPECT_DOUBLE_EQ(negative.max(), 2.0);
}

TEST_F(ObsTest, HistogramConcurrentRecordsKeepExactCount) {
    Histogram& h = registry().histogram("test.concurrent_hist");
    h.reset();
    par::set_thread_count(8);
    constexpr std::size_t kItems = 50000;
    par::parallel_for(kItems, [&](std::size_t i) {
        h.record(static_cast<double>(i % 1024));
    });
    EXPECT_EQ(h.count(), kItems);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 1023.0);
}

// --- Spans and the chrome trace --------------------------------------------

TEST_F(ObsTest, SpanStatAggregatesEveryCompletion) {
    SpanStat& stat = registry().span_stat("test.span_agg");
    stat.reset();
    for (int i = 0; i < 10; ++i) {
        ScopedSpan span("test.span_agg", stat);
    }
    EXPECT_EQ(stat.duration_ns.count(), 10u);
}

TEST_F(ObsTest, TraceEventsReconstructNestingParentFirst) {
    clear_trace_events();
    set_trace_enabled(true);
    SpanStat& outer_stat = registry().span_stat("test.outer");
    SpanStat& inner_stat = registry().span_stat("test.inner");
    {
        ScopedSpan outer("test.outer", outer_stat);
        { ScopedSpan inner_a("test.inner", inner_stat); }
        { ScopedSpan inner_b("test.inner", inner_stat); }
    }
    set_trace_enabled(false);

    const std::vector<TraceEvent> events = trace_events();
    ASSERT_EQ(events.size(), 3u);
    // Sorted (tid, start asc, end desc): the enclosing span comes first and
    // its interval contains both children, which do not overlap each other.
    EXPECT_STREQ(events[0].name, "test.outer");
    EXPECT_STREQ(events[1].name, "test.inner");
    EXPECT_STREQ(events[2].name, "test.inner");
    for (int child = 1; child <= 2; ++child) {
        EXPECT_GE(events[child].start_ns, events[0].start_ns);
        EXPECT_LE(events[child].end_ns, events[0].end_ns);
    }
    EXPECT_LE(events[1].end_ns, events[2].start_ns);
    EXPECT_EQ(events[0].tid, events[1].tid);

    const std::string json = chrome_trace_json();
    EXPECT_TRUE(json_balanced(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

    clear_trace_events();
    EXPECT_TRUE(trace_events().empty());
}

TEST_F(ObsTest, TraceCollectionIsOffByDefault) {
    clear_trace_events();
    ASSERT_FALSE(trace_enabled());
    SpanStat& stat = registry().span_stat("test.untraced");
    { ScopedSpan span("test.untraced", stat); }
    EXPECT_TRUE(trace_events().empty()); // profile recorded, no trace event
}

// --- OpenMetrics round trip -------------------------------------------------

// What --obs-out writes and /metrics serves reads back with every kind of
// family intact: a counter, a gauge, a histogram and a span profile.
TEST_F(ObsTest, RegistryRoundTripsThroughOpenMetrics) {
    registry().counter("test.om_counter").reset();
    registry().counter("test.om_counter").add(1234);
    registry().gauge("test.om_gauge").set(2.5);
    Histogram& h = registry().histogram("test.om_hist");
    h.reset();
    h.record(3.0);
    h.record(5.0);
    SpanStat& span = registry().span_stat("test.om_span");
    span.reset();
    span.record(1500);

    const Scrape scrape = parse_openmetrics(render_openmetrics());
    EXPECT_EQ(scrape.counters.at("dre_test_om_counter"), 1234u);
    EXPECT_EQ(scrape.gauges.at("dre_test_om_gauge"), 2.5);
    const HistogramSnapshot& hist = scrape.histograms.at("dre_test_om_hist");
    EXPECT_EQ(hist.count, 2u);
    EXPECT_EQ(hist.sum, 8.0);
    const HistogramSnapshot& spans =
        scrape.histograms.at("dre_span_test_om_span_ns");
    EXPECT_EQ(spans.count, 1u);
    EXPECT_EQ(spans.sum, 1500.0);
}

TEST_F(ObsTest, JsonWriterEscapesStrings) {
    std::string out;
    JsonWriter writer(&out);
    writer.begin_object();
    writer.key("quote\"back\\slash");
    writer.value(std::string_view("line\nbreak\ttab"));
    writer.key("num");
    writer.value(std::uint64_t{7});
    writer.end_object();
    EXPECT_TRUE(json_balanced(out));
    EXPECT_NE(out.find("\\\""), std::string::npos);
    EXPECT_NE(out.find("\\\\"), std::string::npos);
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\\t"), std::string::npos);
}

TEST_F(ObsTest, ReportRendersSectionsInInsertionOrder) {
    Report report;
    report.set("", "bench", "unit");
    report.set("alpha", "x", 1.5);
    report.set("alpha", "y", 0.25);
    report.set("beta", "label", "hello");
    EXPECT_EQ(report.to_text(),
              "  bench                        unit\n"
              "\n"
              "alpha:\n"
              "  x                                1.5000\n"
              "  y                                0.2500\n"
              "\n"
              "beta:\n"
              "  label                        hello\n");

    // Re-setting a key overwrites in place instead of duplicating.
    report.set("alpha", "x", 2.5);
    const std::string updated = report.to_text();
    EXPECT_NE(updated.find("alpha:\n  x                                2.5000\n"
                           "  y"),
              std::string::npos)
        << updated;
    EXPECT_EQ(updated.find("  x  "), updated.rfind("  x  "));
}

// --- Macro layer ------------------------------------------------------------

TEST_F(ObsTest, MacrosRecordIntoTheRegistry) {
    Counter& counter = registry().counter("test.macro_counter");
    counter.reset();
    for (int i = 0; i < 5; ++i) DRE_COUNTER_INC("test.macro_counter");
    DRE_COUNTER_ADD("test.macro_counter", 10);
    DRE_GAUGE_SET("test.macro_gauge", 4.0);
    DRE_HIST_RECORD("test.macro_hist", 16.0);
    {
        DRE_SPAN("test.macro_span");
    }
    EXPECT_EQ(counter.value(), 15u);
    EXPECT_DOUBLE_EQ(registry().gauge("test.macro_gauge").value(), 4.0);
    EXPECT_EQ(registry().span_stat("test.macro_span").duration_ns.count(), 1u);
}

TEST_F(ObsTest, RegistryResetZeroesEveryKind) {
    registry().counter("test.reset_all_c").add(5);
    registry().gauge("test.reset_all_g").set(5.0);
    registry().histogram("test.reset_all_h").record(5.0);
    registry().span_stat("test.reset_all_s").record(5);
    registry().reset();
    EXPECT_EQ(registry().counter("test.reset_all_c").value(), 0u);
    EXPECT_DOUBLE_EQ(registry().gauge("test.reset_all_g").value(), 0.0);
    EXPECT_EQ(registry().histogram("test.reset_all_h").count(), 0u);
    EXPECT_EQ(registry().span_stat("test.reset_all_s").duration_ns.count(), 0u);
}

} // namespace
} // namespace dre::obs
