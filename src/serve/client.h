// Blocking client for the dre::serve protocol. One Client owns one TCP
// connection to a local EvalServer; calls are synchronous request/reply
// and a Client instance is not thread-safe (loadgen gives each client
// thread its own). An Error reply surfaces as a ServeError carrying the
// server's classification, so callers can tell backpressure
// (kOverloaded) apart from a bad request.
#ifndef DRE_SERVE_CLIENT_H
#define DRE_SERVE_CLIENT_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "serve/protocol.h"

namespace dre::serve {

class ServeError : public std::runtime_error {
public:
    ServeError(ErrorCode code, const std::string& message)
        : std::runtime_error(std::string(to_string(code)) + ": " + message),
          code_(code) {}
    ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

class Client {
public:
    // Connects to 127.0.0.1:<port> and performs the Hello handshake.
    // Throws std::runtime_error on connection failure, ProtocolError on a
    // garbled handshake.
    explicit Client(std::uint16_t port);
    ~Client();
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    // Round-trips one Evaluate request. Throws ServeError on an Error
    // reply (kOverloaded = backpressure), ProtocolError on wire garbage.
    ResultMsg evaluate(const EvaluateMsg& request);
    StatsReplyMsg stats();
    PingMsg ping(std::uint64_t token);

private:
    void send_bytes(const std::vector<unsigned char>& bytes);
    Frame read_frame();

    int fd_ = -1;
    FrameDecoder decoder_;
};

// A Client wrapper that reconnects and retries failed Evaluate calls, up
// to `max_attempts` tries in all (1 = no retries).
//
// Between tries it adds a *virtual* backoff of 1 ms x 2^attempt, as the
// .drt reader does (store/reader.h): recorded to the
// serve.client.retry_backoff_ms histogram, never slept, so retry behavior
// is deterministic and tests never wait on wall clocks. Retrying is safe
// because Evaluate is idempotent by construction: the server keys requests
// by (trace, policy, model, ci, seed), so a retried request coalesces onto
// or reproduces the identical computation.
//
// Retryable: connection failures (refused/reset/closed — the serve.accept,
// serve.read, serve.write fault kinds all land here), wire garbage
// (ProtocolError: the stream is broken, reconnect), and the server's
// kOverloaded / kInternal / kBadFrame error replies. NOT retryable:
// kBadRequest and kNotFound (deterministic — the cache latches the same
// failure), and kDeadlineExceeded (the budget is spent; retrying with the
// same deadline is futile). The underlying connection is created lazily
// and replaced after any transport-level failure.
class RetryingClient {
public:
    explicit RetryingClient(std::uint16_t port, int max_attempts = 3);

    // Evaluate with retries; rethrows the last failure when the attempt
    // budget is exhausted.
    ResultMsg evaluate(const EvaluateMsg& request);

    // Pass-throughs on the current connection (connect on demand, no
    // retry: these are diagnostics).
    StatsReplyMsg stats();
    PingMsg ping(std::uint64_t token);

    std::uint64_t retries() const noexcept { return retries_; }
    double virtual_backoff_ms() const noexcept { return backoff_ms_; }

private:
    Client& ensure_connected();

    std::uint16_t port_;
    int max_attempts_;
    std::unique_ptr<Client> client_;
    std::uint64_t retries_ = 0;
    double backoff_ms_ = 0.0; // cumulative virtual backoff (never slept)
};

} // namespace dre::serve

#endif // DRE_SERVE_CLIENT_H
