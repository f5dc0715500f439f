#include "serve/metrics_http.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.h"
#include "obs/openmetrics.h"

namespace dre::serve {

namespace {

void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

void send_all(int fd, const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ::ssize_t sent = ::send(fd, bytes.data() + done,
                                      bytes.size() - done, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            return; // scrape client went away; nothing to clean up
        }
        done += static_cast<std::size_t>(sent);
    }
}

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
    std::string out = "HTTP/1.1 ";
    out += status;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

// Read until the end of the request headers (or `timeout_ms` total / 8 KiB,
// whichever comes first) and answer based on the request line alone. The
// budget is for the whole header read, not per recv — a slow-loris peer
// trickling one byte per poll interval used to hold the single-threaded
// listener indefinitely; now it is cut off when the budget elapses and the
// partial request falls through to the 404 arm.
void serve_one_connection(int fd, int timeout_ms) {
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(timeout_ms);
    std::string request;
    char buffer[2048];
    while (request.size() < 8192 &&
           request.find("\r\n\r\n") == std::string::npos) {
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - clock::now());
        if (remaining.count() <= 0) {
            DRE_COUNTER_INC("serve.metrics_slow_loris_closed");
            break;
        }
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
        if (ready <= 0) break;
        const ::ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got <= 0) {
            if (got < 0 && errno == EINTR) continue;
            break;
        }
        request.append(buffer, static_cast<std::size_t>(got));
    }
    const std::size_t line_end = request.find("\r\n");
    const std::string line =
        line_end == std::string::npos ? request : request.substr(0, line_end);

    std::string response;
    if (line.rfind("GET /metrics", 0) == 0 &&
        (line.size() == 12 || line[12] == ' ' || line[12] == '?')) {
        response = http_response(
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            obs::render_openmetrics());
        DRE_COUNTER_INC("serve.metrics_scrapes");
    } else if (line.rfind("GET /healthz", 0) == 0 &&
               (line.size() == 12 || line[12] == ' ')) {
        response = http_response("200 OK", "text/plain; charset=utf-8", "ok\n");
    } else {
        response = http_response("404 Not Found", "text/plain; charset=utf-8",
                                 "only GET /metrics and GET /healthz\n");
    }
    send_all(fd, response);
}

} // namespace

MetricsHttpServer::MetricsHttpServer(std::uint16_t port, int request_timeout_ms)
    : requested_port_(port), request_timeout_ms_(request_timeout_ms) {}

MetricsHttpServer::~MetricsHttpServer() { stop_and_join(); }

void MetricsHttpServer::start() {
    const auto fail_errno = [](const char* what) {
        throw std::runtime_error(std::string("serve metrics: ") + what + ": " +
                                 std::strerror(errno));
    };
    if (started_) throw std::runtime_error("serve metrics: already started");
    try {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) fail_errno("socket");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(requested_port_);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0)
            fail_errno("bind");
        if (::listen(listen_fd_, 16) != 0) fail_errno("listen");

        socklen_t len = sizeof(addr);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) != 0)
            fail_errno("getsockname");
        port_ = ntohs(addr.sin_port);

        if (::pipe(wake_pipe_) != 0) fail_errno("pipe");

        stop_.store(false);
        thread_ = std::thread([this] { loop(); });
    } catch (...) {
        // A failed start leaves no descriptor open.
        close_fd(listen_fd_);
        for (int& fd : wake_pipe_) close_fd(fd);
        throw;
    }
    started_ = true;
}

void MetricsHttpServer::stop_and_join() {
    if (!started_) return;
    stop_.store(true);
    if (wake_pipe_[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
    }
    if (thread_.joinable()) thread_.join();
    for (int& fd : wake_pipe_) close_fd(fd);
    started_ = false;
}

void MetricsHttpServer::loop() {
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (stop_.load(std::memory_order_acquire)) break;
        if ((fds[0].revents & POLLIN) == 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        // Scrapes are serial by design: one cheap response at a time keeps
        // the listener a single thread with no session state; the per-
        // connection timeout bounds how long one peer can occupy it.
        serve_one_connection(fd, request_timeout_ms_);
        ::close(fd);
    }
    close_fd(listen_fd_);
}

} // namespace dre::serve
