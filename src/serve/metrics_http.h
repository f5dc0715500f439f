// MetricsHttpServer — the tiny HTTP side listener behind
// `dre_serve --metrics-port` (DESIGN.md §13).
//
// Deliberately not a web server: it answers exactly two GET paths and
// nothing else —
//
//   GET /metrics   the OpenMetrics exposition of the obs registry
//   GET /healthz   "ok\n" (liveness for probes and scripts)
//
// — each on its own short-lived connection (Connection: close), parsed
// from the request line only. It runs one poll-loop thread, mirroring the
// EvalServer io loop's wake-pipe shutdown pattern, and never touches the
// evaluation path: a scrape costs registry snapshots, nothing more.
#ifndef DRE_SERVE_METRICS_HTTP_H
#define DRE_SERVE_METRICS_HTTP_H

#include <atomic>
#include <cstdint>
#include <thread>

namespace dre::serve {

class MetricsHttpServer {
public:
    // `port` 0 = kernel-assigned (read back via port() after start()).
    // `request_timeout_ms` bounds the *whole* header read per connection —
    // the slow-loris guard: a peer trickling bytes (or stalling outright)
    // is cut off and closed once the budget elapses, so one bad client can
    // hold the single-threaded listener for at most this long.
    explicit MetricsHttpServer(std::uint16_t port,
                               int request_timeout_ms = 2000);
    ~MetricsHttpServer(); // stop_and_join() if running
    MetricsHttpServer(const MetricsHttpServer&) = delete;
    MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

    // Binds 127.0.0.1:<port> and spawns the listener thread. Throws
    // std::runtime_error on socket failure, with nothing left open.
    void start();
    std::uint16_t port() const noexcept { return port_; }
    void stop_and_join();

private:
    void loop();

    std::uint16_t requested_port_;
    int request_timeout_ms_;
    std::uint16_t port_ = 0;
    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::atomic<bool> stop_{false};
    bool started_ = false;
    std::thread thread_;
};

} // namespace dre::serve

#endif // DRE_SERVE_METRICS_HTTP_H
