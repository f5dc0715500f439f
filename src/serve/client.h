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
    // Server-side telemetry ring, pivoted per series (empty when the
    // server's sampler is off or the build has observability disabled).
    TimeseriesReplyMsg timeseries();
    PingMsg ping(std::uint64_t token);

    std::uint32_t server_version() const noexcept { return server_version_; }

private:
    void send_bytes(const std::vector<unsigned char>& bytes);
    Frame read_frame();

    int fd_ = -1;
    FrameDecoder decoder_;
    std::uint32_t server_version_ = 0;
};

// Client-side retry schedule. Mirrors the .drt reader's retries (see
// store/reader.h): the backoff is *virtual* — computed as
// base * multiplier^attempt and recorded to the
// serve.client.retry_backoff_ms histogram, never slept — so retry behavior
// is deterministic and tests never wait on wall clocks. Safe because
// Evaluate is idempotent by construction: the server keys requests by
// (trace, policy, model, ci, seed), so a retried request coalesces onto or
// reproduces the identical computation.
struct RetryPolicy {
    int max_attempts = 3; // 1 = no retries
    double backoff_base_ms = 1.0;
    double backoff_multiplier = 2.0;
};

// A Client wrapper that reconnects and retries failed Evaluate calls.
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
    explicit RetryingClient(std::uint16_t port, RetryPolicy policy = {});

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
    RetryPolicy policy_;
    std::unique_ptr<Client> client_;
    std::uint64_t retries_ = 0;
    double backoff_ms_ = 0.0; // cumulative virtual backoff (never slept)
};

} // namespace dre::serve

#endif // DRE_SERVE_CLIENT_H
