#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace dre::obs {
namespace {

// Relaxed compare-exchange accumulate for atomic doubles (sum/min/max are
// scrape-side statistics, not synchronization).
void atomic_add(std::atomic<double>& target, double delta) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

void atomic_min(std::atomic<double>& target, double value) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (value < current && !target.compare_exchange_weak(
                                  current, value, std::memory_order_relaxed)) {
    }
}

void atomic_max(std::atomic<double>& target, double value) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (value > current && !target.compare_exchange_weak(
                                  current, value, std::memory_order_relaxed)) {
    }
}

} // namespace

double HistogramSnapshot::bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double HistogramSnapshot::bucket_hi(std::size_t i) noexcept {
    return i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i));
}

double HistogramSnapshot::quantile(double p) const noexcept {
    p = std::clamp(p, 0.0, 1.0);
    std::uint64_t total = 0;
    for (const std::uint64_t c : buckets) total += c;
    if (total == 0) return 0.0;
    // Rank of the p-quantile observation (1-based). Within the winning
    // bucket, observations sit at midpoint positions (k - 0.5 for the k-th),
    // so a bucket that contains the rank interpolates around its occupants
    // instead of reporting the bucket's upper bound.
    const double rank = p * static_cast<double>(total - 1) + 1.0;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0) continue;
        if (static_cast<double>(cumulative + buckets[i]) < rank) {
            cumulative += buckets[i];
            continue;
        }
        const double lo = bucket_lo(i);
        const double hi = bucket_hi(i);
        const double within = std::clamp(
            (rank - static_cast<double>(cumulative) - 0.5) /
                static_cast<double>(buckets[i]),
            0.0, 1.0);
        const double estimate = lo + within * (hi - lo);
        return has_extremes ? std::clamp(estimate, min, max) : estimate;
    }
    return has_extremes ? max : bucket_hi(buckets.size() - 1);
}

HistogramSnapshot HistogramSnapshot::delta_since(
    const HistogramSnapshot& earlier) const noexcept {
    HistogramSnapshot out;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        out.buckets[i] =
            buckets[i] >= earlier.buckets[i] ? buckets[i] - earlier.buckets[i]
                                             : 0;
        out.count += out.buckets[i];
    }
    out.sum = sum - earlier.sum;
    // A window's true extremes are unknowable from cumulative state; leave
    // has_extremes false so quantile() relies on bucket interpolation only.
    return out;
}

std::size_t Histogram::bucket_index(double value) noexcept {
    if (!(value >= 1.0)) return 0; // negatives/NaN land in the floor bucket
    const double clamped =
        std::min(value, static_cast<double>(std::numeric_limits<std::uint64_t>::max() / 2));
    const auto integral = static_cast<std::uint64_t>(clamped);
    const auto width = static_cast<std::size_t>(std::bit_width(integral));
    return std::min(width, kBuckets - 1);
}

void Histogram::record(double value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomic_add(sum_, value);
    if (!any_.load(std::memory_order_relaxed)) {
        // First-record race: both threads fall through to min/max updates,
        // which are idempotent once seeded.
        double expected_min = 0.0, expected_max = 0.0;
        min_.compare_exchange_strong(expected_min, value,
                                     std::memory_order_relaxed);
        max_.compare_exchange_strong(expected_max, value,
                                     std::memory_order_relaxed);
        any_.store(true, std::memory_order_relaxed);
    }
    atomic_min(min_, value);
    atomic_max(max_, value);
}

double Histogram::min() const noexcept {
    return any_.load(std::memory_order_relaxed)
               ? min_.load(std::memory_order_relaxed)
               : 0.0;
}

double Histogram::max() const noexcept {
    return any_.load(std::memory_order_relaxed)
               ? max_.load(std::memory_order_relaxed)
               : 0.0;
}

double Histogram::mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
    HistogramSnapshot out;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        out.count += out.buckets[i];
    }
    out.sum = sum_.load(std::memory_order_relaxed);
    out.has_extremes = any_.load(std::memory_order_relaxed);
    if (out.has_extremes) {
        out.min = min_.load(std::memory_order_relaxed);
        out.max = max_.load(std::memory_order_relaxed);
    }
    return out;
}

void Histogram::reset() noexcept {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
    any_.store(false, std::memory_order_relaxed);
}

Registry& Registry::instance() {
    // Leaked on purpose: instrumentation sites cache references in
    // function-local statics, which may run during static destruction.
    static Registry* const registry = new Registry();
    return *registry;
}

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
    auto it = map.find(name);
    if (it == map.end()) {
        it = map.emplace(std::string(name),
                         std::make_unique<typename Map::mapped_type::element_type>())
                 .first;
    }
    return *it->second;
}

} // namespace

Counter& Registry::counter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return find_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return find_or_create(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return find_or_create(histograms_, name);
}

SpanStat& Registry::span_stat(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return find_or_create(span_stats_, name);
}

void Registry::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, counter] : counters_) counter->reset();
    for (auto& [name, gauge] : gauges_) gauge->reset();
    for (auto& [name, histogram] : histograms_) histogram->reset();
    for (auto& [name, span] : span_stats_) span->reset();
}

std::vector<CounterSample> Registry::counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CounterSample> out;
    out.reserve(counters_.size());
    for (const auto& [name, counter] : counters_)
        out.push_back({name, counter->value()});
    return out;
}

std::vector<GaugeSample> Registry::gauges() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<GaugeSample> out;
    out.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_)
        out.push_back({name, gauge->value()});
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histogram_snapshots() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_)
        out.emplace_back(name, histogram->snapshot());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::span_duration_snapshots() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(span_stats_.size());
    for (const auto& [name, span] : span_stats_)
        out.emplace_back(name, span->duration_ns.snapshot());
    return out;
}

} // namespace dre::obs
