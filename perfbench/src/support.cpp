#include "support.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

using namespace dre;

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
    // splitmix64 of (seed, index): distinct, well-spread seeds per sample.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) {
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

Usage usage_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    u.minflt = static_cast<double>(ru.ru_minflt);
    u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
    return u;
}

void add_usage_since(const Usage& before, Usage& sum) {
    const Usage now = usage_now();
    sum.cpu_s += now.cpu_s - before.cpu_s;
    sum.minflt += now.minflt - before.minflt;
}

void Results::metric(const std::string& name, double value,
                     const std::string& unit) {
    metrics_[name] = {value, unit};
}

void Results::failed(const std::string& what) {
    ++failed_;
    ++wrong_;
    std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
}

void Results::refused(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

std::string Results::json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
        char value[64];
        // %.17g keeps every digit of the measured double; JSON has no
        // NaN/Inf, so a non-finite value (a bug) is written as null and
        // rejected by the caller.
        if (std::isfinite(entry.first))
            std::snprintf(value, sizeof(value), "%.17g", entry.first);
        else
            std::snprintf(value, sizeof(value), "null");
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               entry.second + "\"}";
    }
    out += "}}";
    return out;
}

namespace {
std::atomic<std::uint64_t> g_last_span_id{0};
std::atomic<std::uint64_t> g_last_trace_id{0};
} // namespace

std::uint64_t SpanLog::reserve_span_id() {
    return enabled_ ? g_last_span_id.fetch_add(1) + 1 : 0;
}

std::uint64_t SpanLog::next_trace_id() {
    return enabled_ ? g_last_trace_id.fetch_add(1) + 1 : 0;
}

void SpanLog::record(const char* name, std::uint64_t trace_id,
                     std::uint64_t span_id, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns) const {
    if (!enabled_) return;
    obs::record_trace_event(name, static_cast<std::uint64_t>(start_ns),
                            static_cast<std::uint64_t>(end_ns), trace_id,
                            span_id, parent);
}

double ScopedSpan::finish() {
    if (end_ == 0) {
        end_ = now_ns();
        log_.record(name_, trace_id_, id_, parent_, start_, end_);
    }
    return ms_between(start_, end_);
}

bool write_text_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
