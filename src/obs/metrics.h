// Metric primitives for `dre::obs`: named counters, gauges, and histograms
// behind a process-global registry.
//
// Design constraints (see DESIGN.md §8):
//
//  * The hot path pays one relaxed atomic per event. Counters shard their
//    cells per thread slot (cache-line padded), so concurrent increments
//    from the dre::par pool never bounce a line between cores; the shards
//    are summed only on scrape.
//  * Observability is read-only with respect to results: nothing in this
//    header produces a value the evaluation pipeline consumes, so the
//    DRE_THREADS=1-vs-8 bit-identity contract is untouched.
//  * Metric objects are registered once and never destroyed (the registry
//    leaks by design), so instrumentation sites may cache `Counter&`
//    references in function-local statics without lifetime hazards.
//
// Instrumentation sites should use the DRE_COUNTER_* / DRE_GAUGE_SET /
// DRE_HIST_RECORD macros from obs/obs.h.
#ifndef DRE_OBS_METRICS_H
#define DRE_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dre::obs {

// Number of cache-line-padded cells per counter. Threads hash onto cells by
// a process-unique slot id, so up to kShards threads increment without any
// sharing; beyond that, slots wrap and contention stays bounded.
inline constexpr std::size_t kShards = 16;

// The calling thread's shard slot (assigned on first use, stable for the
// thread's lifetime).
inline std::size_t shard_index() noexcept {
    static std::atomic<std::size_t> next_slot{0};
    thread_local const std::size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
    return slot;
}

// Monotonically increasing event count.
class Counter {
public:
    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void add(std::uint64_t n = 1) noexcept {
        shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept {
        std::uint64_t total = 0;
        for (const Cell& cell : shards_)
            total += cell.value.load(std::memory_order_relaxed);
        return total;
    }

    void reset() noexcept {
        for (Cell& cell : shards_) cell.value.store(0, std::memory_order_relaxed);
    }

private:
    struct alignas(64) Cell {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Cell, kShards> shards_{};
};

// Last-writer-wins instantaneous value (tuples/sec, queue depth, ESS).
class Gauge {
public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(double value) noexcept {
        value_.store(value, std::memory_order_relaxed);
    }
    double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

// Shared bucket geometry for Histogram and HistogramSnapshot: bucket 0
// covers [0, 1); bucket i >= 1 covers [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 64;

// A plain-data copy of a Histogram's state at one scrape instant.
// Snapshots are what the OpenMetrics exposition renders (cumulative `le`
// buckets need a consistent view) and what dre_top diffs between scrapes:
// `delta_since(previous)` yields the window's histogram, whose quantiles
// are the windowed p50/p99. Quantiles place the target rank at bucket
// midpoints (rank - 0.5 within the winning bucket), so a bucket holding
// exactly the quantile observation interpolates instead of reporting the
// bucket's upper bound; when the snapshot carries observed extremes
// (direct snapshots do, window deltas cannot) the estimate is additionally
// clamped to [min, max].
struct HistogramSnapshot {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0, max = 0.0;
    bool has_extremes = false; // min/max are trustworthy observed values

    static double bucket_lo(std::size_t i) noexcept;
    static double bucket_hi(std::size_t i) noexcept;

    // Approximate p-quantile (p in [0, 1]); 0 when empty.
    double quantile(double p) const noexcept;
    double p50() const noexcept { return quantile(0.50); }
    double p99() const noexcept { return quantile(0.99); }

    // The histogram of observations recorded after `earlier` was taken
    // (counter-style subtraction; extremes are unknowable for a window).
    HistogramSnapshot delta_since(const HistogramSnapshot& earlier) const noexcept;
};

// Power-of-two exponential histogram over non-negative values (bucket
// geometry above). Quantiles are estimates with bounded relative error,
// not exact order statistics — cheap enough to record from concurrent hot
// paths.
class Histogram {
public:
    static constexpr std::size_t kBuckets = kHistogramBuckets;

    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void record(double value) noexcept;

    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
    double min() const noexcept;
    double max() const noexcept;
    double mean() const noexcept;
    // Consistent-enough copy of the current state (each field is read
    // relaxed; the snapshot is a statistics view, not a synchronization).
    HistogramSnapshot snapshot() const noexcept;
    // Approximate p-quantile (p in [0, 1]); 0 when empty. Same estimate as
    // snapshot().quantile(p).
    double quantile(double p) const noexcept { return snapshot().quantile(p); }
    // Named quantile accessors, so consumers (the serve Stats reply, the
    // loadgen summary) share one definition of "p99" instead of each
    // hard-coding the probability.
    double p50() const noexcept { return quantile(0.50); }
    double p90() const noexcept { return quantile(0.90); }
    double p99() const noexcept { return quantile(0.99); }
    void reset() noexcept;

private:
    static std::size_t bucket_index(double value) noexcept;

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
    std::atomic<bool> any_{false};
};

// Aggregated profile for one span name: the duration histogram, whose
// count and sum are the span's completions and total time.
struct SpanStat {
    Histogram duration_ns;

    void record(std::uint64_t ns) noexcept {
        duration_ns.record(static_cast<double>(ns));
    }
    void reset() noexcept { duration_ns.reset(); }
};

// --- Scrape-time snapshots -------------------------------------------------

struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
};

struct GaugeSample {
    std::string name;
    double value = 0.0;
};

// Process-global name -> metric map. Lookup takes a mutex, so
// instrumentation sites cache the returned reference in a function-local
// static (the DRE_* macros do this) and the steady-state cost is the metric
// update alone. Metrics live for the life of the process; reset() zeroes
// values but never invalidates references.
class Registry {
public:
    static Registry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);
    SpanStat& span_stat(std::string_view name);

    // Zero every metric (objects and references stay valid).
    void reset();

    // Sorted-by-name snapshots for the OpenMetrics exposition.
    // span_duration_snapshots covers each span profile's duration
    // histogram (values in nanoseconds).
    std::vector<CounterSample> counters() const;
    std::vector<GaugeSample> gauges() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histogram_snapshots() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    span_duration_snapshots() const;

private:
    Registry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
    std::map<std::string, std::unique_ptr<SpanStat>, std::less<>> span_stats_;
};

inline Registry& registry() { return Registry::instance(); }

} // namespace dre::obs

#endif // DRE_OBS_METRICS_H
