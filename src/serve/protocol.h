// Wire protocol for dre::serve (DESIGN.md §12).
//
// Every message is one length-prefixed frame:
//
//   offset  size  field
//   0       4     u32 LE: bytes that follow (kind + payload)
//   4       1     u8 message kind (MsgKind)
//   5       n-1   payload, message-specific
//
// Payload scalars are little-endian fixed-width integers; doubles travel
// as their IEEE-754 bit pattern in a u64 (bit-exact — the determinism
// contract extends to the wire); strings are u32 length + raw bytes (no
// terminator). The frame length covers the kind byte, so the empty-payload
// Stats request has length 1. Frames above kMaxFrameBytes are a protocol
// error: the peer is malfunctioning or hostile, and the connection is
// dropped rather than buffered without bound.
//
// Message vocabulary (client → server unless noted):
//
//   Hello      version handshake; server echoes its own Hello
//   Evaluate   one evaluation request (trace, policy, model, ci, seed,
//              trace_id for request-scoped tracing, deadline_ms)
//   Result     server → client: the rendered report + headline DR, plus
//              the request's trace_id and phase timing breakdown
//   Stats      empty request; server replies with a StatsReply frame
//              (also kind kStats) carrying counters and latency quantiles
//   Ping       liveness probe; server echoes the token back
//   Error      server → client: classified failure for one request
//
// Every payload has one fixed layout: each field of the struct below, in
// declaration order, every time. A decoder reads every field and then
// requires the payload to end, so a short or long payload is a
// ProtocolError. Every peer (Client, dre_loadgen, perfbench, the tests) is
// built from this tree, so there are no optional or skipped fields. To
// add a field: add the struct member, one write in its encode_*, one read
// at the same position in its decode_*, and bump kProtocolVersion.
//
// The structs below are plain decoded forms; encode_*/decode_* do the
// byte work. Decoding never trusts lengths: every read is bounds-checked
// and a malformed payload throws ProtocolError (the server answers with
// kBadFrame and closes, it never crashes).
#ifndef DRE_SERVE_PROTOCOL_H
#define DRE_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dre::serve {

inline constexpr std::uint32_t kProtocolVersion = 2;
inline constexpr std::size_t kMaxFrameBytes = 16u << 20; // 16 MiB

enum class MsgKind : std::uint8_t {
    kHello = 1,
    kEvaluate = 2,
    kResult = 3,
    kStats = 4,
    kPing = 5,
    kError = 6,
};

enum class ErrorCode : std::uint32_t {
    kBadRequest = 1, // unknown policy/model spec, malformed field
    kNotFound = 2,   // trace path missing or unreadable
    kOverloaded = 3, // admission control rejected: queue full, retry later
    kInternal = 4,   // anything else; message carries the what()
    kBadFrame = 5,   // frame failed to decode; connection will close
    kDeadlineExceeded = 6, // the request's deadline passed (shed at
                           // admission or expired in queue/compute/
                           // serialize); retrying with the same deadline
                           // is futile, the client should raise it
};

class ProtocolError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// --- decoded messages ------------------------------------------------------

struct HelloMsg {
    std::uint32_t version = kProtocolVersion;
    bool operator==(const HelloMsg&) const = default;
};

// One evaluation request. Mirrors the dre_eval CLI surface the service
// reproduces byte-for-byte: `dre_eval <trace> <policy> --model <model>
// [--ci <ci_replicates>] --seed <seed>`.
struct EvaluateMsg {
    std::string trace;           // path or shard prefix, server-side
    std::string policy;          // uniform | constant:<d> | greedy:<model>[:<epsilon>]
    std::string model = "tabular";
    std::uint32_t ci_replicates = 0;
    std::uint64_t seed = 1;
    // The client's trace id for request-scoped tracing; 0 lets the server
    // generate one.
    std::uint64_t trace_id = 0;
    // Wall-clock budget for this request in milliseconds, measured from
    // admission; 0 = no deadline. The server sheds the request at admission
    // if the budget is provably unmeetable, and answers kDeadlineExceeded
    // the moment the budget expires in any later phase.
    std::uint64_t deadline_ms = 0;
    bool operator==(const EvaluateMsg&) const = default;
};

struct ResultMsg {
    std::string text; // exactly the CLI's stdout for the same request
    double dr = 0.0;  // headline number, for clients that skip parsing
    bool cache_hit = false; // evaluator came from the shared cache
    // Telemetry (zeros when the server was built with DRE_OBS_ENABLED=0).
    // These are diagnostics about *this* service of the request —
    // deliberately not part of `text`, which stays byte-identical to the
    // dre_eval CLI.
    std::uint64_t trace_id = 0; // echoed (or server-assigned) request id
    double queue_ms = 0.0;      // admission -> dispatcher pickup
    double cache_ms = 0.0;      // trace/policy/evaluator cache stage
    double compute_ms = 0.0;    // evaluate_seeded proper
    double serialize_ms = 0.0;  // response render + frame encode
    // Resilience. A degraded Result was produced under overload
    // brownout: estimates come from a prefix sub-trace with
    // denominators rescaled exactly over the tuples actually evaluated and
    // DR CI half-widths widened by 1/coverage (the PR 5 degrade-mode
    // semantics) — never a silently skewed full-trace estimate. Clients
    // that verify byte-identity must exclude degraded frames (loadgen
    // does). coverage stays 1.0 for non-degraded responses.
    bool degraded = false;
    double coverage = 1.0; // evaluated tuples / full-trace tuples
    bool operator==(const ResultMsg&) const = default;
};

struct StatsReplyMsg {
    std::uint64_t requests_total = 0;
    std::uint64_t rejected = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t evaluator_hits = 0;
    std::uint64_t evaluator_misses = 0;
    std::uint64_t policy_hits = 0;
    std::uint64_t policy_misses = 0;
    std::uint64_t trace_hits = 0;
    std::uint64_t trace_misses = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    // Telemetry: phase-level quantiles and the journal line count (zeros
    // from an obs-disabled server).
    std::uint64_t journal_lines = 0;
    double queue_p50_ms = 0.0;
    double queue_p99_ms = 0.0;
    double compute_p50_ms = 0.0;
    double compute_p99_ms = 0.0;
    // Resilience counters: deadline outcomes, admission sheds, brownout
    // responses (degraded compute + cache-only), and idle sessions reaped
    // by the io-thread watchdog.
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t shed = 0;
    std::uint64_t brownout = 0;
    std::uint64_t sessions_reaped = 0;
    bool operator==(const StatsReplyMsg&) const = default;
};

struct PingMsg {
    std::uint64_t token = 0;
    bool operator==(const PingMsg&) const = default;
};

struct ErrorMsg {
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
    bool operator==(const ErrorMsg&) const = default;
};

// --- payload primitives ----------------------------------------------------

// Append-only little-endian payload builder.
class WireWriter {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v); // IEEE-754 bit pattern via u64
    void str(const std::string& s);
    const std::vector<unsigned char>& bytes() const noexcept { return bytes_; }

private:
    std::vector<unsigned char> bytes_;
};

// Bounds-checked reader over one payload; any underrun or oversized string
// throws ProtocolError.
class WireReader {
public:
    WireReader(const unsigned char* data, std::size_t size)
        : data_(data), size_(size) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();
    // Trailing bytes after the last field are a framing bug.
    void expect_done() const;

private:
    void need(std::size_t n) const;
    const unsigned char* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// --- frames ----------------------------------------------------------------

struct Frame {
    MsgKind kind = MsgKind::kError;
    std::vector<unsigned char> payload;
};

// One complete wire frame: length prefix + kind + payload.
std::vector<unsigned char> encode_frame(MsgKind kind,
                                        const std::vector<unsigned char>& payload);

// Incremental frame reassembly over a byte stream. feed() whatever recv
// produced; next() pops complete frames in order. Oversized or
// unknown-kind frames throw ProtocolError (the session is then closed).
class FrameDecoder {
public:
    void feed(const unsigned char* data, std::size_t size);
    std::optional<Frame> next();
    std::size_t buffered() const noexcept { return buffer_.size(); }

private:
    std::deque<unsigned char> buffer_;
};

// --- message encode/decode -------------------------------------------------

std::vector<unsigned char> encode_hello(const HelloMsg& m);
std::vector<unsigned char> encode_evaluate(const EvaluateMsg& m);
std::vector<unsigned char> encode_result(const ResultMsg& m);
std::vector<unsigned char> encode_stats_request();
std::vector<unsigned char> encode_stats_reply(const StatsReplyMsg& m);
std::vector<unsigned char> encode_ping(const PingMsg& m);
std::vector<unsigned char> encode_error(const ErrorMsg& m);

HelloMsg decode_hello(const Frame& f);
EvaluateMsg decode_evaluate(const Frame& f);
ResultMsg decode_result(const Frame& f);
// A kStats frame is a request when its payload is empty, a reply otherwise.
bool is_stats_request(const Frame& f);
StatsReplyMsg decode_stats_reply(const Frame& f);
PingMsg decode_ping(const Frame& f);
ErrorMsg decode_error(const Frame& f);

const char* to_string(ErrorCode code) noexcept;

} // namespace dre::serve

#endif // DRE_SERVE_PROTOCOL_H
