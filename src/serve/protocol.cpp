#include "serve/protocol.h"

#include <bit>
#include <concepts>
#include <tuple>
#include <utility>

namespace dre::serve {

namespace {

static_assert(sizeof(bool) == 1, "a bool field is one byte on the wire");

// Builds one frame: the u32 length prefix and the kind byte, then one
// little-endian field per call. An unsigned field is as wide as its type (a
// bool is one byte, 0 or 1), a double travels as its bit pattern, an
// ErrorCode as a u32 and a string as a u32 length and its bytes.
class Writer {
public:
    explicit Writer(MsgKind kind)
        : bytes_{0, 0, 0, 0, static_cast<unsigned char>(kind)} {}

    template <std::unsigned_integral T> void operator()(T v) {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes_.push_back(static_cast<unsigned char>(v >> (8 * i)));
    }
    void operator()(double v) { (*this)(std::bit_cast<std::uint64_t>(v)); }
    void operator()(ErrorCode v) { (*this)(static_cast<std::uint32_t>(v)); }
    // A string too long for its u32 length is too long for the frame, so
    // frame() rejects it.
    void operator()(const std::string& s) {
        (*this)(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    // Fills in the length prefix, which covers the kind byte.
    std::vector<unsigned char> frame() && {
        const std::size_t body = bytes_.size() - 4;
        if (body > kMaxFrameBytes)
            throw ProtocolError("serve: frame exceeds " +
                                std::to_string(kMaxFrameBytes) + " bytes");
        for (std::size_t i = 0; i < 4; ++i)
            bytes_[i] = static_cast<unsigned char>(body >> (8 * i));
        return std::move(bytes_);
    }

private:
    std::vector<unsigned char> bytes_;
};

// Reads one payload field per call, in the Writer's encoding. Every read is
// bounds-checked: an underrun or an ErrorCode outside the enum throws
// ProtocolError.
class Reader {
public:
    explicit Reader(const std::vector<unsigned char>& payload)
        : payload_(payload) {}

    template <std::unsigned_integral T> void operator()(T& v) {
        need(sizeof(T));
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            x |= std::uint64_t{payload_[pos_ + i]} << (8 * i);
        pos_ += sizeof(T);
        v = static_cast<T>(x);
    }
    void operator()(double& v) {
        std::uint64_t bits = 0;
        (*this)(bits);
        v = std::bit_cast<double>(bits);
    }
    void operator()(ErrorCode& v) {
        std::uint32_t code = 0;
        (*this)(code);
        if (code < static_cast<std::uint32_t>(ErrorCode::kBadRequest) ||
            code > static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded))
            throw ProtocolError("serve: unknown error code " +
                                std::to_string(code));
        v = static_cast<ErrorCode>(code);
    }
    void operator()(std::string& s) {
        std::uint32_t n = 0;
        (*this)(n);
        need(n);
        s.assign(reinterpret_cast<const char*>(payload_.data() + pos_), n);
        pos_ += n;
    }

    // Trailing bytes after the last field are a framing bug.
    void expect_done() const {
        if (pos_ != payload_.size())
            throw ProtocolError("serve: " +
                                std::to_string(payload_.size() - pos_) +
                                " trailing payload bytes");
    }

private:
    void need(std::size_t n) const {
        if (payload_.size() - pos_ < n)
            throw ProtocolError("serve: truncated payload (needed " +
                                std::to_string(n) + " more bytes, have " +
                                std::to_string(payload_.size() - pos_) + ")");
    }

    const std::vector<unsigned char>& payload_;
    std::size_t pos_ = 0;
};

// Each message's frame kind and its one field list, in wire order.
// `fields(m)` ties the members of `m`: encode() walks the list of a const
// message with a Writer, decode() the list of a fresh one with a Reader.
template <typename Msg> struct Layout;

template <> struct Layout<HelloMsg> {
    static constexpr MsgKind kind = MsgKind::kHello;
    static constexpr const char* name = "Hello";
    static auto fields(auto& m) { return std::tie(m.version); }
};

template <> struct Layout<EvaluateMsg> {
    static constexpr MsgKind kind = MsgKind::kEvaluate;
    static constexpr const char* name = "Evaluate";
    static auto fields(auto& m) {
        return std::tie(m.trace, m.policy, m.model, m.ci_replicates, m.seed,
                        m.trace_id, m.deadline_ms);
    }
};

template <> struct Layout<ResultMsg> {
    static constexpr MsgKind kind = MsgKind::kResult;
    static constexpr const char* name = "Result";
    static auto fields(auto& m) {
        return std::tie(m.text, m.dr, m.cache_hit, m.trace_id, m.queue_ms,
                        m.cache_ms, m.compute_ms, m.serialize_ms, m.degraded,
                        m.coverage);
    }
};

template <> struct Layout<StatsReplyMsg> {
    static constexpr MsgKind kind = MsgKind::kStats;
    static constexpr const char* name = "Stats";
    static auto fields(auto& m) {
        return std::tie(m.requests_total, m.rejected, m.coalesced,
                        m.queue_depth, m.evaluator_hits, m.evaluator_misses,
                        m.policy_hits, m.policy_misses, m.trace_hits,
                        m.trace_misses, m.p50_ms, m.p90_ms, m.p99_ms,
                        m.journal_lines, m.queue_p50_ms, m.queue_p99_ms,
                        m.compute_p50_ms, m.compute_p99_ms,
                        m.deadline_exceeded, m.shed, m.brownout,
                        m.sessions_reaped);
    }
};

template <> struct Layout<PingMsg> {
    static constexpr MsgKind kind = MsgKind::kPing;
    static constexpr const char* name = "Ping";
    static auto fields(auto& m) { return std::tie(m.token); }
};

template <> struct Layout<ErrorMsg> {
    static constexpr MsgKind kind = MsgKind::kError;
    static constexpr const char* name = "Error";
    static auto fields(auto& m) { return std::tie(m.code, m.message); }
};

void require_kind(const Frame& f, MsgKind kind, const char* name) {
    if (f.kind != kind)
        throw ProtocolError(std::string("serve: expected ") + name + " frame");
}

template <typename Msg>
std::vector<unsigned char> encode(const Msg& m) {
    Writer w(Layout<Msg>::kind);
    std::apply([&](const auto&... field) { (w(field), ...); },
               Layout<Msg>::fields(m));
    return std::move(w).frame();
}

template <typename Msg>
Msg decode(const Frame& f) {
    require_kind(f, Layout<Msg>::kind, Layout<Msg>::name);
    Reader r(f.payload);
    Msg m;
    std::apply([&](auto&... field) { (r(field), ...); },
               Layout<Msg>::fields(m));
    r.expect_done();
    return m;
}

} // namespace

// --- frames ----------------------------------------------------------------

void FrameDecoder::feed(const unsigned char* data, std::size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
    if (buffer_.size() < 4) return std::nullopt;
    std::uint32_t body = 0;
    for (int i = 0; i < 4; ++i)
        body |= static_cast<std::uint32_t>(buffer_[static_cast<std::size_t>(i)])
                << (8 * i);
    if (body < 1 || body > kMaxFrameBytes)
        throw ProtocolError("serve: bad frame length " + std::to_string(body));
    if (buffer_.size() < 4u + body) return std::nullopt;
    buffer_.erase(buffer_.begin(), buffer_.begin() + 4);
    const auto raw_kind = buffer_.front();
    buffer_.pop_front();
    if (raw_kind < static_cast<unsigned char>(MsgKind::kHello) ||
        raw_kind > static_cast<unsigned char>(MsgKind::kError))
        throw ProtocolError("serve: unknown message kind " +
                            std::to_string(static_cast<unsigned>(raw_kind)));
    Frame f;
    f.kind = static_cast<MsgKind>(raw_kind);
    f.payload.assign(buffer_.begin(), buffer_.begin() + (body - 1));
    buffer_.erase(buffer_.begin(), buffer_.begin() + (body - 1));
    return f;
}

// --- message encode/decode -------------------------------------------------

std::vector<unsigned char> encode_hello(const HelloMsg& m) { return encode(m); }
std::vector<unsigned char> encode_evaluate(const EvaluateMsg& m) {
    return encode(m);
}
std::vector<unsigned char> encode_result(const ResultMsg& m) {
    return encode(m);
}
std::vector<unsigned char> encode_stats_request() {
    return Writer(MsgKind::kStats).frame();
}
std::vector<unsigned char> encode_stats_reply(const StatsReplyMsg& m) {
    return encode(m);
}
std::vector<unsigned char> encode_ping(const PingMsg& m) { return encode(m); }
std::vector<unsigned char> encode_error(const ErrorMsg& m) { return encode(m); }

HelloMsg decode_hello(const Frame& f) { return decode<HelloMsg>(f); }
EvaluateMsg decode_evaluate(const Frame& f) { return decode<EvaluateMsg>(f); }
ResultMsg decode_result(const Frame& f) { return decode<ResultMsg>(f); }
bool is_stats_request(const Frame& f) {
    require_kind(f, MsgKind::kStats, "Stats");
    return f.payload.empty();
}
StatsReplyMsg decode_stats_reply(const Frame& f) {
    return decode<StatsReplyMsg>(f);
}
PingMsg decode_ping(const Frame& f) { return decode<PingMsg>(f); }
ErrorMsg decode_error(const Frame& f) { return decode<ErrorMsg>(f); }

const char* to_string(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::kBadRequest: return "bad-request";
        case ErrorCode::kNotFound: return "not-found";
        case ErrorCode::kOverloaded: return "overloaded";
        case ErrorCode::kInternal: return "internal";
        case ErrorCode::kBadFrame: return "bad-frame";
        case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    }
    return "unknown";
}

} // namespace dre::serve
