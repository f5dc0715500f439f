// dre_top — terminal view of a running dre_serve instance's telemetry.
//
// Usage:
//   dre_top --metrics-port <n> [--watch [seconds]] [--filter substr]
//
// GETs /metrics from the server's OpenMetrics listener (dre_serve
// --metrics-port) on each refresh and applies obs::window_series to the
// previous and the current scrape: a counter shows its rate, a gauge its
// value, a histogram its rate plus the p50/p99 of the observations since
// the previous scrape. On the first scrape every rate is 0 and the
// quantiles cover the whole histogram. One row per series shows the
// latest value, the min/max over the last 32 refreshes, and a sparkline
// over them.
//
//   --metrics-port <n>  metrics port on 127.0.0.1 (required)
//   --watch [secs]      refresh until interrupted (default period 2s)
//   --filter <s>        only show series whose name contains <s>
//
// Exit codes: 0 success, 2 bad arguments, 3 cannot scrape.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cli_flags.h"

#include "obs/openmetrics.h"

namespace {

constexpr std::size_t kWindow = 32; // refreshes kept per series

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

int usage() {
    std::fprintf(stderr, "usage: dre_top --metrics-port N [--watch [seconds]] "
                         "[--filter s]\n");
    return 2;
}

// The body of one `GET /metrics` from 127.0.0.1:<port>.
std::string get_metrics(std::uint16_t port) {
    const auto fail = [port](const char* what) {
        return std::runtime_error(std::string(what) + " 127.0.0.1:" +
                                  std::to_string(port) + ": " +
                                  std::strerror(errno));
    };
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw fail("socket for");
    const std::unique_ptr<const int, void (*)(const int*)> closer(
        &fd, [](const int* open_fd) { ::close(*open_fd); });
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        throw fail("connect to");
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<::ssize_t>(request.size()))
        throw fail("send to");
    std::string response;
    char buffer[16 * 1024];
    for (;;) {
        const ::ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0) throw fail("recv from");
        if (got == 0) break;
        response.append(buffer, static_cast<std::size_t>(got));
    }
    const std::size_t body = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.1 200 ", 0) != 0 || body == std::string::npos)
        throw std::runtime_error("GET /metrics on port " +
                                 std::to_string(port) + ": " +
                                 response.substr(0, response.find('\r')));
    return response.substr(body + 4);
}

// Eight-level bar per refresh, scaled to the series' own [min, max].
std::string sparkline(const std::deque<double>& values, double lo, double hi) {
    static const char* const kLevels[] = {"▁", "▂", "▃",
                                          "▄", "▅", "▆",
                                          "▇", "█"};
    std::string out;
    for (const double value : values) {
        const double span = hi - lo;
        const double unit = span > 0.0 ? (value - lo) / span : 0.0;
        out += kLevels[std::clamp(static_cast<int>(unit * 7.0), 0, 7)];
    }
    return out;
}

void render(std::uint16_t port, std::size_t refresh,
            const std::map<std::string, std::deque<double>>& window,
            const std::string& filter) {
    std::printf("dre_top  http://127.0.0.1:%u/metrics  refresh %zu\n",
                static_cast<unsigned>(port), refresh);
    std::printf("%-44s %12s %12s %12s  %s\n", "series", "last", "min", "max",
                "trend");
    for (const auto& [name, values] : window) {
        if (!filter.empty() && name.find(filter) == std::string::npos)
            continue;
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        std::printf("%-44s %12.3f %12.3f %12.3f  %s\n", name.c_str(),
                    values.back(), *lo, *hi,
                    sparkline(values, *lo, *hi).c_str());
    }
}

} // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 0;
    bool watch = false;
    double period_s = 2.0;
    std::string filter;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--metrics-port" && i + 1 < argc) {
            const auto value = dre::tools::read_number<std::uint16_t>(argv[++i]);
            if (!value || *value == 0)
                dre::tools::reject_flag("--metrics-port",
                                        "an integer in [1, 65535]", argv[i]);
            port = *value;
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
    if (port == 0) return usage();

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    try {
        dre::obs::Scrape previous;
        auto previous_time = std::chrono::steady_clock::now();
        std::map<std::string, std::deque<double>> window;
        for (std::size_t refresh = 1;; ++refresh) {
            const dre::obs::Scrape current =
                dre::obs::parse_openmetrics(get_metrics(port));
            const auto now = std::chrono::steady_clock::now();
            const double dt_ms =
                refresh == 1 ? 0.0
                             : std::chrono::duration<double, std::milli>(
                                   now - previous_time)
                                   .count();
            for (const auto& [name, value] :
                 dre::obs::window_series(previous, current, dt_ms)) {
                std::deque<double>& values = window[name];
                values.push_back(value);
                if (values.size() > kWindow) values.pop_front();
            }
            previous = current;
            previous_time = now;

            if (watch) std::printf("\x1b[H\x1b[2J"); // home + clear
            render(port, refresh, window, filter);
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
