#include "serve/protocol.h"

#include <cstring>

namespace dre::serve {

// --- WireWriter ------------------------------------------------------------

void WireWriter::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void WireWriter::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void WireWriter::f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void WireWriter::str(const std::string& s) {
    if (s.size() > kMaxFrameBytes)
        throw ProtocolError("serve: string exceeds frame limit");
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

// --- WireReader ------------------------------------------------------------

void WireReader::need(std::size_t n) const {
    if (size_ - pos_ < n)
        throw ProtocolError("serve: truncated payload (needed " +
                            std::to_string(n) + " more bytes, have " +
                            std::to_string(size_ - pos_) + ")");
}

std::uint8_t WireReader::u8() {
    need(1);
    return data_[pos_++];
}

std::uint32_t WireReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t WireReader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

double WireReader::f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string WireReader::str() {
    const std::uint32_t n = u32();
    if (n > kMaxFrameBytes)
        throw ProtocolError("serve: string length exceeds frame limit");
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
}

void WireReader::expect_done() const {
    if (pos_ != size_)
        throw ProtocolError("serve: " + std::to_string(size_ - pos_) +
                            " trailing payload bytes");
}

// --- frames ----------------------------------------------------------------

std::vector<unsigned char> encode_frame(
    MsgKind kind, const std::vector<unsigned char>& payload) {
    const std::size_t body = payload.size() + 1;
    if (body > kMaxFrameBytes)
        throw ProtocolError("serve: frame exceeds " +
                            std::to_string(kMaxFrameBytes) + " bytes");
    std::vector<unsigned char> out;
    out.reserve(4 + body);
    const auto n = static_cast<std::uint32_t>(body);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>((n >> (8 * i)) & 0xff));
    out.push_back(static_cast<unsigned char>(kind));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

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

namespace {

Frame require_kind(const Frame& f, MsgKind kind, const char* what) {
    if (f.kind != kind)
        throw ProtocolError(std::string("serve: expected ") + what + " frame");
    return f;
}

WireReader reader(const Frame& f) {
    return WireReader(f.payload.data(), f.payload.size());
}

} // namespace

std::vector<unsigned char> encode_hello(const HelloMsg& m) {
    WireWriter w;
    w.u32(m.version);
    return encode_frame(MsgKind::kHello, w.bytes());
}

HelloMsg decode_hello(const Frame& f) {
    require_kind(f, MsgKind::kHello, "Hello");
    WireReader r = reader(f);
    HelloMsg m;
    m.version = r.u32();
    r.expect_done();
    return m;
}

std::vector<unsigned char> encode_evaluate(const EvaluateMsg& m) {
    WireWriter w;
    w.str(m.trace);
    w.str(m.policy);
    w.str(m.model);
    w.u32(m.ci_replicates);
    w.u64(m.seed);
    w.u64(m.trace_id);
    w.u64(m.deadline_ms);
    return encode_frame(MsgKind::kEvaluate, w.bytes());
}

EvaluateMsg decode_evaluate(const Frame& f) {
    require_kind(f, MsgKind::kEvaluate, "Evaluate");
    WireReader r = reader(f);
    EvaluateMsg m;
    m.trace = r.str();
    m.policy = r.str();
    m.model = r.str();
    m.ci_replicates = r.u32();
    m.seed = r.u64();
    m.trace_id = r.u64();
    m.deadline_ms = r.u64();
    r.expect_done();
    return m;
}

std::vector<unsigned char> encode_result(const ResultMsg& m) {
    WireWriter w;
    w.str(m.text);
    w.f64(m.dr);
    w.u8(m.cache_hit ? 1 : 0);
    w.u64(m.trace_id);
    w.f64(m.queue_ms);
    w.f64(m.cache_ms);
    w.f64(m.compute_ms);
    w.f64(m.serialize_ms);
    w.u8(m.degraded ? 1 : 0);
    w.f64(m.coverage);
    return encode_frame(MsgKind::kResult, w.bytes());
}

ResultMsg decode_result(const Frame& f) {
    require_kind(f, MsgKind::kResult, "Result");
    WireReader r = reader(f);
    ResultMsg m;
    m.text = r.str();
    m.dr = r.f64();
    m.cache_hit = r.u8() != 0;
    m.trace_id = r.u64();
    m.queue_ms = r.f64();
    m.cache_ms = r.f64();
    m.compute_ms = r.f64();
    m.serialize_ms = r.f64();
    m.degraded = r.u8() != 0;
    m.coverage = r.f64();
    r.expect_done();
    return m;
}

std::vector<unsigned char> encode_stats_request() {
    return encode_frame(MsgKind::kStats, {});
}

bool is_stats_request(const Frame& f) {
    require_kind(f, MsgKind::kStats, "Stats");
    return f.payload.empty();
}

std::vector<unsigned char> encode_stats_reply(const StatsReplyMsg& m) {
    WireWriter w;
    w.u64(m.requests_total);
    w.u64(m.rejected);
    w.u64(m.coalesced);
    w.u64(m.queue_depth);
    w.u64(m.evaluator_hits);
    w.u64(m.evaluator_misses);
    w.u64(m.policy_hits);
    w.u64(m.policy_misses);
    w.u64(m.trace_hits);
    w.u64(m.trace_misses);
    w.f64(m.p50_ms);
    w.f64(m.p90_ms);
    w.f64(m.p99_ms);
    w.u64(m.journal_lines);
    w.f64(m.queue_p50_ms);
    w.f64(m.queue_p99_ms);
    w.f64(m.compute_p50_ms);
    w.f64(m.compute_p99_ms);
    w.u64(m.deadline_exceeded);
    w.u64(m.shed);
    w.u64(m.brownout);
    w.u64(m.sessions_reaped);
    return encode_frame(MsgKind::kStats, w.bytes());
}

StatsReplyMsg decode_stats_reply(const Frame& f) {
    require_kind(f, MsgKind::kStats, "Stats");
    WireReader r = reader(f);
    StatsReplyMsg m;
    m.requests_total = r.u64();
    m.rejected = r.u64();
    m.coalesced = r.u64();
    m.queue_depth = r.u64();
    m.evaluator_hits = r.u64();
    m.evaluator_misses = r.u64();
    m.policy_hits = r.u64();
    m.policy_misses = r.u64();
    m.trace_hits = r.u64();
    m.trace_misses = r.u64();
    m.p50_ms = r.f64();
    m.p90_ms = r.f64();
    m.p99_ms = r.f64();
    m.journal_lines = r.u64();
    m.queue_p50_ms = r.f64();
    m.queue_p99_ms = r.f64();
    m.compute_p50_ms = r.f64();
    m.compute_p99_ms = r.f64();
    m.deadline_exceeded = r.u64();
    m.shed = r.u64();
    m.brownout = r.u64();
    m.sessions_reaped = r.u64();
    r.expect_done();
    return m;
}

std::vector<unsigned char> encode_ping(const PingMsg& m) {
    WireWriter w;
    w.u64(m.token);
    return encode_frame(MsgKind::kPing, w.bytes());
}

PingMsg decode_ping(const Frame& f) {
    require_kind(f, MsgKind::kPing, "Ping");
    WireReader r = reader(f);
    PingMsg m;
    m.token = r.u64();
    r.expect_done();
    return m;
}

std::vector<unsigned char> encode_error(const ErrorMsg& m) {
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(m.code));
    w.str(m.message);
    return encode_frame(MsgKind::kError, w.bytes());
}

ErrorMsg decode_error(const Frame& f) {
    require_kind(f, MsgKind::kError, "Error");
    WireReader r = reader(f);
    ErrorMsg m;
    const std::uint32_t code = r.u32();
    if (code < static_cast<std::uint32_t>(ErrorCode::kBadRequest) ||
        code > static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded))
        throw ProtocolError("serve: unknown error code " + std::to_string(code));
    m.code = static_cast<ErrorCode>(code);
    m.message = r.str();
    r.expect_done();
    return m;
}

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
