#include "obs/openmetrics.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace dre::obs {
namespace {

void append_double(std::string* out, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
}

void append_u64(std::string* out, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    *out += buf;
}

void append_type(std::string* out, const std::string& name, const char* type) {
    *out += "# TYPE ";
    *out += name;
    *out += ' ';
    *out += type;
    *out += '\n';
}

// One histogram family from a snapshot: cumulative le buckets up to the
// highest occupied one, +Inf, then _sum and _count.
void append_histogram(std::string* out, const std::string& name,
                      const HistogramSnapshot& snapshot) {
    append_type(out, name, "histogram");
    std::size_t last = 0;
    for (std::size_t i = 0; i < snapshot.buckets.size(); ++i)
        if (snapshot.buckets[i] != 0) last = i;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= last && snapshot.count != 0; ++i) {
        cumulative += snapshot.buckets[i];
        *out += name;
        *out += "_bucket{le=\"";
        append_double(out, HistogramSnapshot::bucket_hi(i));
        *out += "\"} ";
        append_u64(out, cumulative);
        *out += '\n';
    }
    *out += name;
    *out += "_bucket{le=\"+Inf\"} ";
    append_u64(out, snapshot.count);
    *out += '\n';
    *out += name;
    *out += "_sum ";
    append_double(out, snapshot.sum);
    *out += '\n';
    *out += name;
    *out += "_count ";
    append_u64(out, snapshot.count);
    *out += '\n';
}

[[noreturn]] void reject_line(std::string_view line, const char* why) {
    throw std::runtime_error("openmetrics: " + std::string(why) + " in '" +
                             std::string(line) + "'");
}

// `text` read whole as a T, as append_u64 / append_double wrote it.
template <typename T>
T read_number(std::string_view text, std::string_view line) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end) reject_line(line, "bad number");
    return value;
}

} // namespace

std::string openmetrics_name(std::string_view registry_name) {
    std::string out = "dre_";
    out.reserve(registry_name.size() + 4);
    for (const char c : registry_name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string render_openmetrics() {
    Registry& reg = registry();
    std::string out;
    out.reserve(4096);

    for (const CounterSample& c : reg.counters()) {
        const std::string name = openmetrics_name(c.name);
        append_type(&out, name, "counter");
        out += name;
        out += "_total ";
        append_u64(&out, c.value);
        out += '\n';
    }
    for (const GaugeSample& g : reg.gauges()) {
        const std::string name = openmetrics_name(g.name);
        append_type(&out, name, "gauge");
        out += name;
        out += ' ';
        append_double(&out, g.value);
        out += '\n';
    }
    for (const auto& [raw_name, snapshot] : reg.histogram_snapshots())
        append_histogram(&out, openmetrics_name(raw_name), snapshot);
    for (const auto& [raw_name, snapshot] : reg.span_duration_snapshots())
        append_histogram(&out, openmetrics_name("span." + raw_name + "_ns"),
                         snapshot);

    out += "# EOF\n";
    return out;
}

Scrape parse_openmetrics(std::string_view text) {
    Scrape out;
    std::string family; // from the latest `# TYPE` line
    std::string type;
    std::size_t next_bucket = 0;   // of the current histogram
    std::uint64_t cumulative = 0;  // its last `le` count
    if (!text.ends_with("# EOF\n"))
        throw std::runtime_error("openmetrics: no final # EOF line");
    text.remove_suffix(6);
    while (!text.empty()) {
        const std::size_t newline = text.find('\n');
        if (newline == std::string_view::npos)
            reject_line(text, "unterminated line");
        const std::string_view line = text.substr(0, newline);
        text.remove_prefix(newline + 1);
        if (line.starts_with("# TYPE ")) {
            const std::string_view rest = line.substr(7);
            const std::size_t space = rest.find(' ');
            if (space == std::string_view::npos) reject_line(line, "bad TYPE");
            family = rest.substr(0, space);
            type = rest.substr(space + 1);
            if (type == "histogram") {
                out.histograms[family] = HistogramSnapshot{};
                next_bucket = 0;
                cumulative = 0;
            } else if (type != "counter" && type != "gauge") {
                reject_line(line, "unknown type");
            }
            continue;
        }
        const std::size_t space = line.rfind(' ');
        if (family.empty() || space == std::string_view::npos ||
            !line.starts_with(family))
            reject_line(line, "sample outside its family");
        const std::string_view suffix =
            line.substr(family.size(), space - family.size());
        const std::string_view value = line.substr(space + 1);
        if (type == "counter") {
            if (suffix != "_total") reject_line(line, "bad counter sample");
            out.counters[family] = read_number<std::uint64_t>(value, line);
        } else if (type == "gauge") {
            if (!suffix.empty()) reject_line(line, "bad gauge sample");
            out.gauges[family] = read_number<double>(value, line);
        } else if (suffix == "_sum") {
            out.histograms[family].sum = read_number<double>(value, line);
        } else if (suffix == "_count") {
            out.histograms[family].count =
                read_number<std::uint64_t>(value, line);
        } else if (suffix == "_bucket{le=\"+Inf\"}") {
            (void)read_number<std::uint64_t>(value, line); // == _count
        } else if (suffix.starts_with("_bucket{le=\"") &&
                   suffix.ends_with("\"}")) {
            const double le =
                read_number<double>(suffix.substr(12, suffix.size() - 14), line);
            std::size_t i = next_bucket;
            while (i < kHistogramBuckets && HistogramSnapshot::bucket_hi(i) != le)
                ++i;
            const std::uint64_t count = read_number<std::uint64_t>(value, line);
            if (i == kHistogramBuckets || count < cumulative)
                reject_line(line, "bad bucket");
            out.histograms[family].buckets[i] = count - cumulative;
            cumulative = count;
            next_bucket = i + 1;
        } else {
            reject_line(line, "bad histogram sample");
        }
    }
    return out;
}

std::vector<std::pair<std::string, double>> window_series(
    const Scrape& previous, const Scrape& current, double dt_ms) {
    const auto per_second = [dt_ms](std::uint64_t delta) {
        return dt_ms > 0.0 ? static_cast<double>(delta) / (dt_ms / 1e3) : 0.0;
    };
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& [family, value] : current.counters) {
        const auto it = previous.counters.find(family);
        const std::uint64_t before =
            it == previous.counters.end() ? 0 : it->second;
        rows.emplace_back(family + "_total.rate",
                          per_second(value >= before ? value - before : 0));
    }
    for (const auto& [family, value] : current.gauges)
        rows.emplace_back(family, value);
    for (const auto& [family, snapshot] : current.histograms) {
        const auto it = previous.histograms.find(family);
        const HistogramSnapshot window =
            it == previous.histograms.end() ? snapshot
                                            : snapshot.delta_since(it->second);
        rows.emplace_back(family + "_count.rate", per_second(window.count));
        rows.emplace_back(family + ".p50", window.p50());
        rows.emplace_back(family + ".p99", window.p99());
    }
    return rows;
}

} // namespace dre::obs
