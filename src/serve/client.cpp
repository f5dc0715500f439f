#include "serve/client.h"

#include <cmath>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.h"

namespace dre::serve {

Client::Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw std::runtime_error(std::string("serve client: socket: ") +
                                 std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error(
            std::string("serve client: connect to 127.0.0.1:") +
            std::to_string(port) + ": " + std::strerror(saved));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    send_bytes(encode_hello({kProtocolVersion}));
    (void)decode_hello(read_frame()); // any version; no peer checks it
}

Client::~Client() {
    if (fd_ >= 0) ::close(fd_);
}

void Client::send_bytes(const std::vector<unsigned char>& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ::ssize_t sent = ::send(fd_, bytes.data() + done,
                                      bytes.size() - done, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("serve client: send: ") +
                                     std::strerror(errno));
        }
        done += static_cast<std::size_t>(sent);
    }
}

Frame Client::read_frame() {
    unsigned char buffer[64 * 1024];
    for (;;) {
        if (auto frame = decoder_.next()) return std::move(*frame);
        const ::ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (got < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("serve client: recv: ") +
                                     std::strerror(errno));
        }
        if (got == 0)
            throw std::runtime_error("serve client: server closed connection");
        decoder_.feed(buffer, static_cast<std::size_t>(got));
    }
}

ResultMsg Client::evaluate(const EvaluateMsg& request) {
    send_bytes(encode_evaluate(request));
    const Frame reply = read_frame();
    if (reply.kind == MsgKind::kError) {
        const ErrorMsg err = decode_error(reply);
        throw ServeError(err.code, err.message);
    }
    return decode_result(reply);
}

StatsReplyMsg Client::stats() {
    send_bytes(encode_stats_request());
    return decode_stats_reply(read_frame());
}

PingMsg Client::ping(std::uint64_t token) {
    send_bytes(encode_ping({token}));
    return decode_ping(read_frame());
}

// --- RetryingClient --------------------------------------------------------

namespace {

bool retryable_code(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::kOverloaded:
        case ErrorCode::kInternal:
        case ErrorCode::kBadFrame:
            return true;
        case ErrorCode::kBadRequest:
        case ErrorCode::kNotFound:
        case ErrorCode::kDeadlineExceeded:
            return false;
    }
    return false;
}

} // namespace

RetryingClient::RetryingClient(std::uint16_t port, int max_attempts)
    : port_(port), max_attempts_(max_attempts < 1 ? 1 : max_attempts) {}

Client& RetryingClient::ensure_connected() {
    if (!client_) client_ = std::make_unique<Client>(port_);
    return *client_;
}

ResultMsg RetryingClient::evaluate(const EvaluateMsg& request) {
    for (int attempt = 0;; ++attempt) {
        bool reconnect = false;
        try {
            return ensure_connected().evaluate(request);
        } catch (const ServeError& e) {
            // The error reply was well-formed, so the connection is fine —
            // except after kBadFrame, where the server closes the session.
            reconnect = e.code() == ErrorCode::kBadFrame;
            if (!retryable_code(e.code()) || attempt + 1 >= max_attempts_) {
                throw;
            }
        } catch (const ProtocolError&) {
            reconnect = true;
            if (attempt + 1 >= max_attempts_) throw;
        } catch (const std::runtime_error&) {
            // Transport-level: connect refused, send/recv error, server
            // closed the connection mid-reply.
            reconnect = true;
            if (attempt + 1 >= max_attempts_) throw;
        }
        if (reconnect) client_.reset();
        const double backoff = std::ldexp(1.0, attempt); // 1 ms x 2^attempt
        backoff_ms_ += backoff; // virtual: recorded, never slept
        ++retries_;
        DRE_COUNTER_INC("serve.retries");
        DRE_HIST_RECORD("serve.client.retry_backoff_ms", backoff);
    }
}

StatsReplyMsg RetryingClient::stats() { return ensure_connected().stats(); }

PingMsg RetryingClient::ping(std::uint64_t token) {
    return ensure_connected().ping(token);
}

} // namespace dre::serve
