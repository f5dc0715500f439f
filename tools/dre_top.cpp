// dre_top — terminal view of a running dre_serve instance's telemetry.
//
// Usage:
//   dre_top --port <n> [--watch [seconds]] [--filter substr]
//
// Sends a Timeseries request over the dre::serve protocol and renders the
// server's sampled ring: one row per series with the latest value, the
// window min/max, and a coarse sparkline over the retained samples. The
// ring is only populated when the server runs with a sampling interval
// (--ts-interval-ms > 0) in a DRE_OBS_ENABLED build; against anything else
// dre_top prints the (empty) truth rather than failing.
//
//   --port <n>       server port on 127.0.0.1 (required)
//   --watch [secs]   refresh until interrupted (default period 2s)
//   --filter <s>     only show series whose name contains <s>
//
// A Stats request rides along for the header line (totals, queue depth,
// cache hits). Exit codes: 0 success, 2 bad arguments, 3 cannot connect.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"

#include "serve/client.h"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

int usage() {
    std::fprintf(stderr,
                 "usage: dre_top --port N [--watch [seconds]] [--filter s]\n");
    return 2;
}

// Eight-level bar per point, scaled to the series' own [min, max] window.
std::string sparkline(const std::vector<dre::serve::TimeseriesPoint>& points,
                      double lo, double hi, std::size_t width) {
    static const char* const kLevels[] = {"▁", "▂", "▃",
                                          "▄", "▅", "▆",
                                          "▇", "█"};
    std::string out;
    const std::size_t start =
        points.size() > width ? points.size() - width : 0;
    for (std::size_t i = start; i < points.size(); ++i) {
        const double span = hi - lo;
        const double unit =
            span > 0.0 ? (points[i].value - lo) / span : 0.0;
        const int level = std::clamp(static_cast<int>(unit * 7.0), 0, 7);
        out += kLevels[level];
    }
    return out;
}

void render(dre::serve::Client& client, const std::string& filter) {
    using namespace dre::serve;
    const StatsReplyMsg stats = client.stats();
    const TimeseriesReplyMsg ts = client.timeseries();

    std::printf("dre_top  interval %llu ms  |  %llu requests "
                "(%llu coalesced, %llu rejected)  queue %llu  "
                "p50 %.2f ms  p99 %.2f ms\n",
                static_cast<unsigned long long>(ts.interval_ms),
                static_cast<unsigned long long>(stats.requests_total),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.queue_depth),
                stats.p50_ms, stats.p99_ms);
    if (ts.series.empty()) {
        std::printf("(no samples — server needs --ts-interval-ms > 0 and a "
                    "DRE_OBS_ENABLED build)\n");
        return;
    }
    std::printf("%-36s %12s %12s %12s  %s\n", "series", "last", "min", "max",
                "trend");
    for (const TimeseriesSeries& series : ts.series) {
        if (!filter.empty() &&
            series.name.find(filter) == std::string::npos)
            continue;
        if (series.points.empty()) continue;
        double lo = series.points.front().value;
        double hi = lo;
        for (const TimeseriesPoint& p : series.points) {
            lo = std::min(lo, p.value);
            hi = std::max(hi, p.value);
        }
        std::printf("%-36s %12.3f %12.3f %12.3f  %s\n", series.name.c_str(),
                    series.points.back().value, lo, hi,
                    sparkline(series.points, lo, hi, 32).c_str());
    }
}

} // namespace

int main(int argc, char** argv) {
    int port = -1;
    bool watch = false;
    double period_s = 2.0;
    std::string filter;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            port = dre::tools::parse_flag<std::uint16_t>("--port", argv[++i]);
        } else if (arg == "--watch") {
            watch = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                period_s =
                    dre::tools::parse_positive_flag("--watch", argv[++i]);
            }
        } else if (arg == "--filter" && i + 1 < argc) {
            filter = argv[++i];
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
            return usage();
        }
    }
    if (port <= 0 || port > 65535) return usage();

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    try {
        dre::serve::Client client(static_cast<std::uint16_t>(port));
        for (;;) {
            if (watch) std::printf("\x1b[H\x1b[2J"); // home + clear
            render(client, filter);
            std::fflush(stdout);
            if (!watch) break;
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::duration<double>(period_s);
            while (!g_stop.load() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (g_stop.load()) break;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    }
    return 0;
}
