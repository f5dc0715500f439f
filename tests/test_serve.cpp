// dre::serve: wire protocol round-trips, shared-cache service semantics,
// and the live server's determinism contract — byte-identical responses
// at any client concurrency, admission-control backpressure, request
// coalescing, and graceful shutdown. The concurrent cases run under TSan
// in CI (8 client threads against the io + dispatcher threads).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/evaluator.h"
#include "core/policy.h"
#include "core/policy_learning.h"
#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/metrics_http.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "stats/rng.h"
#include "store/sharded.h"
#include "store/writer.h"
#include "trace/csv.h"
#include "tune/candidate.h"

namespace {

using namespace dre;

class TempDir {
public:
    TempDir() {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = std::filesystem::temp_directory_path() /
                (std::string("dre_serve_") + info->test_suite_name() + "_" +
                 info->name());
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    std::filesystem::path path_;
};

// A small cdn scenario trace on disk, shared request shapes, and the
// locally rendered text the server must reproduce byte for byte.
Trace make_trace(std::size_t n) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(20170807);
    return core::collect_trace(env, logging, n, rng);
}

serve::EvaluateMsg make_request(const std::string& trace_path,
                                const std::string& policy = "greedy:tabular",
                                std::uint64_t seed = 3) {
    serve::EvaluateMsg m;
    m.trace = trace_path;
    m.policy = policy;
    m.model = "tabular";
    m.ci_replicates = 0;
    m.seed = seed;
    return m;
}

// The exact stdout of `dre_eval <trace> <policy> --model M [--ci N]
// --seed S`, rendered through the same shared code path the CLI uses.
std::string expected_text(const Trace& trace, const serve::EvaluateMsg& m) {
    core::EvaluationConfig config;
    config.reward_model = core::parse_reward_model_kind(m.model);
    const core::Evaluator evaluator(trace, config, stats::Rng(1));
    const auto policy =
        core::parse_policy_spec(m.policy, trace, trace.num_decisions());
    const core::PolicyEvaluation result = evaluator.evaluate_seeded(
        *policy, stats::Rng(m.seed), static_cast<int>(m.ci_replicates), 0.95);
    char header[96];
    std::snprintf(header, sizeof(header), "trace: %zu tuples, %zu decisions\n",
                  trace.size(), trace.num_decisions());
    return header + core::make_policy_report(m.policy, result).to_text();
}

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocolTest, EvaluateRoundTripsThroughFrameDecoder) {
    serve::EvaluateMsg m;
    m.trace = "/data/trace-";
    m.policy = "greedy:knn";
    m.model = "knn";
    m.ci_replicates = 200;
    m.seed = 42;

    const std::vector<unsigned char> wire = serve::encode_evaluate(m);
    serve::FrameDecoder decoder;
    // Feed byte-by-byte: reassembly must not depend on recv boundaries.
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        decoder.feed(wire.data() + i, 1);
        EXPECT_FALSE(decoder.next().has_value());
    }
    decoder.feed(wire.data() + wire.size() - 1, 1);
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, serve::MsgKind::kEvaluate);

    const serve::EvaluateMsg back = serve::decode_evaluate(*frame);
    EXPECT_EQ(back.trace, m.trace);
    EXPECT_EQ(back.policy, m.policy);
    EXPECT_EQ(back.model, m.model);
    EXPECT_EQ(back.ci_replicates, m.ci_replicates);
    EXPECT_EQ(back.seed, m.seed);
}

TEST(ServeProtocolTest, AllMessageKindsRoundTrip) {
    serve::FrameDecoder decoder;
    const auto pump = [&](const std::vector<unsigned char>& wire) {
        decoder.feed(wire.data(), wire.size());
        auto frame = decoder.next();
        EXPECT_TRUE(frame.has_value());
        return *frame;
    };

    EXPECT_EQ(serve::decode_hello(pump(serve::encode_hello({7}))).version, 7u);
    EXPECT_EQ(serve::decode_ping(pump(serve::encode_ping({99}))).token, 99u);

    serve::ResultMsg result;
    result.text = "trace: 5 tuples, 2 decisions\n";
    result.dr = -1.25;
    result.cache_hit = true;
    const serve::ResultMsg result_back =
        serve::decode_result(pump(serve::encode_result(result)));
    EXPECT_EQ(result_back.text, result.text);
    EXPECT_EQ(result_back.dr, result.dr); // bit-exact through the f64 field
    EXPECT_TRUE(result_back.cache_hit);

    const serve::Frame stats_request = pump(serve::encode_stats_request());
    EXPECT_TRUE(serve::is_stats_request(stats_request));
    serve::StatsReplyMsg stats;
    stats.requests_total = 10;
    stats.coalesced = 4;
    stats.p99_ms = 17.5;
    const serve::Frame stats_reply = pump(serve::encode_stats_reply(stats));
    EXPECT_FALSE(serve::is_stats_request(stats_reply));
    const serve::StatsReplyMsg stats_back =
        serve::decode_stats_reply(stats_reply);
    EXPECT_EQ(stats_back.requests_total, 10u);
    EXPECT_EQ(stats_back.coalesced, 4u);
    EXPECT_EQ(stats_back.p99_ms, 17.5);

    const serve::ErrorMsg error_back = serve::decode_error(
        pump(serve::encode_error({serve::ErrorCode::kOverloaded, "queue full"})));
    EXPECT_EQ(error_back.code, serve::ErrorCode::kOverloaded);
    EXPECT_EQ(error_back.message, "queue full");
}

TEST(ServeProtocolTest, TelemetryTailFieldsRoundTrip) {
    serve::FrameDecoder decoder;
    const auto pump = [&](const std::vector<unsigned char>& wire) {
        decoder.feed(wire.data(), wire.size());
        auto frame = decoder.next();
        EXPECT_TRUE(frame.has_value());
        return *frame;
    };

    serve::EvaluateMsg req;
    req.trace = "t.csv";
    req.policy = "greedy:tabular";
    req.model = "tabular";
    req.trace_id = 0x1122334455667788ull;
    EXPECT_EQ(serve::decode_evaluate(pump(serve::encode_evaluate(req))).trace_id,
              req.trace_id);

    serve::ResultMsg result;
    result.text = "x\n";
    result.trace_id = 42;
    result.queue_ms = 1.5;
    result.cache_ms = 0.25;
    result.compute_ms = 8.75;
    result.serialize_ms = 0.125;
    const serve::ResultMsg result_back =
        serve::decode_result(pump(serve::encode_result(result)));
    EXPECT_EQ(result_back.trace_id, 42u);
    EXPECT_EQ(result_back.queue_ms, 1.5);
    EXPECT_EQ(result_back.cache_ms, 0.25);
    EXPECT_EQ(result_back.compute_ms, 8.75);
    EXPECT_EQ(result_back.serialize_ms, 0.125);

    serve::StatsReplyMsg stats;
    stats.journal_lines = 17;
    stats.queue_p50_ms = 1.0;
    stats.queue_p99_ms = 9.0;
    stats.compute_p50_ms = 2.0;
    stats.compute_p99_ms = 20.0;
    const serve::StatsReplyMsg stats_back =
        serve::decode_stats_reply(pump(serve::encode_stats_reply(stats)));
    EXPECT_EQ(stats_back.journal_lines, 17u);
    EXPECT_EQ(stats_back.queue_p50_ms, 1.0);
    EXPECT_EQ(stats_back.compute_p99_ms, 20.0);
}

// --- wire-format properties --------------------------------------------------
//
// One message of every kind with every field away from its default. The
// Evaluate, Result and StatsReply ones are pinned to hex below.

serve::EvaluateMsg pinned_evaluate() {
    serve::EvaluateMsg m;
    m.trace = "t.csv";
    m.policy = "uniform";
    m.model = "knn";
    m.ci_replicates = 200;
    m.seed = 0x0123456789abcdefull;
    m.trace_id = 0x1122334455667788ull;
    m.deadline_ms = 250;
    return m;
}

serve::ResultMsg pinned_result() {
    serve::ResultMsg m;
    m.text = "x\n";
    m.dr = -1.25;
    m.cache_hit = true;
    m.trace_id = 42;
    m.queue_ms = 1.5;
    m.cache_ms = 0.25;
    m.compute_ms = 8.75;
    m.serialize_ms = 0.125;
    m.degraded = true;
    m.coverage = 0.25;
    return m;
}

serve::StatsReplyMsg pinned_stats_reply() {
    serve::StatsReplyMsg m;
    m.requests_total = 1;
    m.rejected = 2;
    m.coalesced = 3;
    m.queue_depth = 4;
    m.evaluator_hits = 5;
    m.evaluator_misses = 6;
    m.policy_hits = 7;
    m.policy_misses = 8;
    m.trace_hits = 9;
    m.trace_misses = 10;
    m.p50_ms = 0.5;
    m.p90_ms = 1.5;
    m.p99_ms = 2.5;
    m.journal_lines = 11;
    m.queue_p50_ms = 3.5;
    m.queue_p99_ms = 4.5;
    m.compute_p50_ms = 5.5;
    m.compute_p99_ms = 6.5;
    m.deadline_exceeded = 12;
    m.shed = 13;
    m.brownout = 14;
    m.sessions_reaped = 15;
    return m;
}

serve::Frame frame_of(const std::vector<unsigned char>& wire) {
    serve::FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    auto frame = decoder.next();
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(decoder.buffered(), 0u);
    return frame.value_or(serve::Frame{});
}

// Decodes a frame by its kind, as its receiver does. A kStats frame is a
// request when its payload is empty and a reply otherwise.
void decode_by_kind(const serve::Frame& f) {
    switch (f.kind) {
        case serve::MsgKind::kHello: (void)serve::decode_hello(f); return;
        case serve::MsgKind::kEvaluate: (void)serve::decode_evaluate(f); return;
        case serve::MsgKind::kResult: (void)serve::decode_result(f); return;
        case serve::MsgKind::kStats:
            if (!serve::is_stats_request(f)) (void)serve::decode_stats_reply(f);
            return;
        case serve::MsgKind::kPing: (void)serve::decode_ping(f); return;
        case serve::MsgKind::kError: (void)serve::decode_error(f); return;
    }
    FAIL() << "unknown kind " << static_cast<int>(f.kind);
}

struct WireCase {
    const char* name;
    std::vector<unsigned char> wire; // one whole frame
    void (*decode)(const serve::Frame&);
};

std::vector<WireCase> wire_cases() {
    return {
        {"Hello", serve::encode_hello({serve::kProtocolVersion}),
         decode_by_kind},
        {"Evaluate", serve::encode_evaluate(pinned_evaluate()), decode_by_kind},
        {"Result", serve::encode_result(pinned_result()), decode_by_kind},
        {"Stats request", serve::encode_stats_request(), decode_by_kind},
        // An empty payload is a Stats request, so the reply's prefixes are
        // read as a reply.
        {"StatsReply", serve::encode_stats_reply(pinned_stats_reply()),
         [](const serve::Frame& f) { (void)serve::decode_stats_reply(f); }},
        {"Ping", serve::encode_ping({0xfeedfacecafebeefull}), decode_by_kind},
        {"Error",
         serve::encode_error({serve::ErrorCode::kDeadlineExceeded, "late"}),
         decode_by_kind},
    };
}

template <typename Msg>
void expect_round_trip(const Msg& m,
                       std::vector<unsigned char> (*encode)(const Msg&),
                       Msg (*decode)(const serve::Frame&)) {
    const std::vector<unsigned char> wire = encode(m);
    const Msg back = decode(frame_of(wire));
    EXPECT_TRUE(back == m);
    EXPECT_EQ(encode(back), wire);
}

TEST(ServeProtocolTest, EveryKindDecodesToItsFieldsAndReencodesToItsBytes) {
    expect_round_trip(serve::HelloMsg{serve::kProtocolVersion},
                      serve::encode_hello, serve::decode_hello);
    expect_round_trip(pinned_evaluate(), serve::encode_evaluate,
                      serve::decode_evaluate);
    expect_round_trip(pinned_result(), serve::encode_result,
                      serve::decode_result);
    expect_round_trip(pinned_stats_reply(), serve::encode_stats_reply,
                      serve::decode_stats_reply);
    expect_round_trip(serve::PingMsg{0xfeedfacecafebeefull}, serve::encode_ping,
                      serve::decode_ping);
    expect_round_trip(
        serve::ErrorMsg{serve::ErrorCode::kDeadlineExceeded, "late"},
        serve::encode_error, serve::decode_error);
    EXPECT_TRUE(serve::is_stats_request(frame_of(serve::encode_stats_request())));
}

// Every field is mandatory: a payload one byte short of any field, or one
// byte past the last, is malformed.
TEST(ServeProtocolTest, EveryShortOrLongPayloadThrows) {
    for (const WireCase& c : wire_cases()) {
        const serve::Frame whole = frame_of(c.wire);
        EXPECT_NO_THROW(c.decode(whole)) << c.name;
        for (std::size_t n = 0; n < whole.payload.size(); ++n) {
            serve::Frame prefix;
            prefix.kind = whole.kind;
            prefix.payload.assign(whole.payload.begin(),
                                  whole.payload.begin() + n);
            EXPECT_THROW(c.decode(prefix), serve::ProtocolError)
                << c.name << " cut to " << n << " bytes";
        }
        serve::Frame longer = whole;
        longer.payload.push_back(0);
        EXPECT_THROW(c.decode(longer), serve::ProtocolError) << c.name;
    }
}

// Any value in any one byte of a frame, the length prefix and the kind
// included, either decodes or throws ProtocolError. A frame whose length
// grew is left waiting for the rest of its bytes, which is neither.
TEST(ServeProtocolTest, EverySingleByteFlipDecodesOrThrowsProtocolError) {
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (const WireCase& c : wire_cases()) {
        for (std::size_t at = 0; at < c.wire.size(); ++at) {
            for (unsigned flip = 1; flip < 256; ++flip) {
                std::vector<unsigned char> wire = c.wire;
                wire[at] ^= static_cast<unsigned char>(flip);
                serve::FrameDecoder decoder;
                decoder.feed(wire.data(), wire.size());
                try {
                    while (const auto frame = decoder.next()) {
                        decode_by_kind(*frame);
                        ++decoded;
                    }
                } catch (const serve::ProtocolError&) {
                    ++rejected;
                } catch (const std::exception& e) {
                    ADD_FAILURE() << c.name << " byte " << at << " ^ " << flip
                                  << ": " << e.what();
                }
            }
        }
    }
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

std::string hex(const std::vector<unsigned char>& bytes) {
    std::string out;
    char digits[3];
    for (const unsigned char b : bytes) {
        std::snprintf(digits, sizeof(digits), "%02x", b);
        out += digits;
    }
    return out;
}

// The frames as the protocol-v1 encoders wrote them. Version 2 made every
// field mandatory on the decoding side; the bytes on the wire are the same.
TEST(ServeProtocolTest, FixedLayoutsKeepTheVersionOneBytes) {
    EXPECT_EQ(hex(serve::encode_evaluate(pinned_evaluate())),
              "380000000205000000742e63737607000000756e69666f726d030000006b6e"
              "6ec8000000efcdab89674523018877665544332211fa00000000000000");
    EXPECT_EQ(hex(serve::encode_result(pinned_result())),
              "410000000302000000780a000000000000f4bf012a000000000000000000"
              "00000000f83f000000000000d03f0000000000802140000000000000c03f"
              "01000000000000d03f");
    EXPECT_EQ(hex(serve::encode_stats_reply(pinned_stats_reply())),
              "b100000004010000000000000002000000000000000300000000000000040"
              "000000000000005000000000000000600000000000000070000000000000008"
              "0000000000000009000000000000000a00000000000000000000000000e03f"
              "000000000000f83f00000000000004400b00000000000000000000000000"
              "0c40000000000000124000000000000016400000000000001a400c000000"
              "000000000d000000000000000e000000000000000f00000000000000");
}

TEST(ServeProtocolTest, MalformedFramesThrow) {
    serve::FrameDecoder decoder;
    // Oversized length prefix.
    const unsigned char huge[] = {0xff, 0xff, 0xff, 0x7f};
    decoder.feed(huge, sizeof(huge));
    EXPECT_THROW(decoder.next(), serve::ProtocolError);

    // Unknown message kind.
    serve::FrameDecoder decoder2;
    const unsigned char unknown[] = {0x01, 0x00, 0x00, 0x00, 0x77};
    decoder2.feed(unknown, sizeof(unknown));
    EXPECT_THROW(decoder2.next(), serve::ProtocolError);

    // Truncated payload: an Evaluate frame cut mid-string.
    serve::Frame truncated;
    truncated.kind = serve::MsgKind::kEvaluate;
    truncated.payload = {0x10, 0x00, 0x00, 0x00, 'x'}; // claims 16 bytes
    EXPECT_THROW(serve::decode_evaluate(truncated), serve::ProtocolError);
}

// --- cache + service --------------------------------------------------------

TEST(ServeCacheTest, BuildsOnceCountsHitsAndLatchesErrors) {
    serve::EvalCache cache;
    std::atomic<int> builds{0};
    const auto build = [&] {
        builds.fetch_add(1);
        return std::make_shared<const Trace>(make_trace(4));
    };

    bool hit = true;
    const auto first = cache.trace("k", build, &hit);
    EXPECT_FALSE(hit);
    const auto second = cache.trace("k", build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.stats().trace_hits, 1u);
    EXPECT_EQ(cache.stats().trace_misses, 1u);

    // A failed build is cached like a success: the key keeps throwing the
    // same error without re-running the builder.
    std::atomic<int> failed_builds{0};
    const auto failing = [&]() -> std::shared_ptr<const Trace> {
        failed_builds.fetch_add(1);
        throw std::runtime_error("no such trace");
    };
    EXPECT_THROW(cache.trace("bad", failing), std::runtime_error);
    EXPECT_THROW(cache.trace("bad", failing), std::runtime_error);
    EXPECT_EQ(failed_builds.load(), 1);
}

TEST(ServeServiceTest, ResponseMatchesCliRenderingAndCachesEvaluator) {
    TempDir dir;
    const Trace trace = make_trace(200);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);

    serve::EvalService service;
    const serve::EvaluateMsg request = make_request(path);

    const serve::ResultMsg first = service.evaluate(request);
    EXPECT_EQ(first.text, expected_text(trace, request));
    EXPECT_FALSE(first.cache_hit);

    const serve::ResultMsg second = service.evaluate(request);
    EXPECT_EQ(second.text, first.text);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.dr, first.dr);

    // Same trace + model, different seed and policy: evaluator still hits.
    const serve::EvaluateMsg other = make_request(path, "uniform", 11);
    const serve::ResultMsg third = service.evaluate(other);
    EXPECT_TRUE(third.cache_hit);
    EXPECT_EQ(third.text, expected_text(trace, other));

    const serve::CacheStats stats = service.cache_stats();
    EXPECT_EQ(stats.trace_misses, 1u);
    EXPECT_EQ(stats.evaluator_misses, 1u);
    EXPECT_EQ(stats.evaluator_hits, 2u);
}

// The service loads .drt input through the store: one file and a shard
// prefix answer with the bytes of the CSV they were converted from, and
// once loaded no store stays mapped — the cache holds only the tuples.
TEST(ServeServiceTest, DrtAndShardPrefixAnswerLikeCsvAndStayUnmapped) {
    TempDir dir;
    const std::string csv = dir.file("trace.csv");
    write_csv_file(make_trace(300), csv);
    const std::string drt = dir.file("trace.drt");
    store::write_store_file(read_csv_file(csv), drt,
                            store::StoreWriter::Options{64});
    const std::vector<std::string> shards =
        store::split_store(store::ShardedStore({drt}), dir.file("shard-"), 3,
                           store::StoreWriter::Options{64});

    serve::EvalService service;
    serve::EvaluateMsg request = make_request(csv);
    request.ci_replicates = 50;
    const std::string want = service.evaluate(request).text;
    for (const std::string& path : {drt, dir.file("shard-")}) {
        request.trace = path;
        EXPECT_EQ(service.evaluate(request).text, want) << path;
    }
    EXPECT_EQ(service.cache_stats().trace_misses, 3u);

#if defined(__linux__)
    const auto mapped = [](const std::string& path) {
        std::ifstream maps("/proc/self/maps");
        const std::string canonical =
            std::filesystem::canonical(path).string();
        for (std::string line; std::getline(maps, line);)
            if (line.ends_with(" " + canonical)) return true;
        return false;
    };
    {
        // The probe sees a mapping while a store is open...
        const store::ShardedStore open_store(shards);
        EXPECT_TRUE(mapped(shards[0]));
    }
    // ...and none of the service's inputs once their tuples are loaded.
    EXPECT_FALSE(mapped(drt));
    for (const std::string& shard : shards) EXPECT_FALSE(mapped(shard));
#endif
}

// The service reads every spec the tuner prints: each candidate
// enumerate() yields over all four families, plus uniform, answers with
// the bytes dre_eval renders for it.
TEST(ServeServiceTest, AnswersEverySpecTheTunerPrints) {
    TempDir dir;
    const Trace trace = make_trace(200);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    tune::CandidateSpace space;
    space.num_decisions = trace.num_decisions();
    space.epsilons = {0.0, 0.05};
    space.temperatures = {0.5};
    space.include_constants = true;
    space.mixture_weights = {0.75};
    space.mixture_arm = 2;
    std::vector<core::PolicySpec> specs = tune::enumerate(space);
    specs.push_back({.kind = core::PolicySpec::Kind::kUniform});

    serve::EvalService service;
    for (const core::PolicySpec& spec : specs) {
        const serve::EvaluateMsg request =
            make_request(path, core::to_string(spec));
        EXPECT_EQ(service.evaluate(request).text,
                  expected_text(trace, request))
            << request.policy;
    }
}

TEST(ServeServiceTest, BadRequestsClassify) {
    TempDir dir;
    write_csv_file(make_trace(20), dir.file("trace.csv"));
    serve::EvalService service;

    serve::EvaluateMsg bad_model = make_request(dir.file("trace.csv"));
    bad_model.model = "deep";
    EXPECT_THROW(service.evaluate(bad_model), std::invalid_argument);

    serve::EvaluateMsg bad_policy = make_request(dir.file("trace.csv"));
    bad_policy.policy = "sideways:3";
    EXPECT_THROW(service.evaluate(bad_policy), std::invalid_argument);

    EXPECT_THROW(service.evaluate(make_request(dir.file("missing.csv"))),
                 std::runtime_error);
}

// --- live server ------------------------------------------------------------

TEST(ServeServerTest, ConcurrentClientsGetByteIdenticalResponses) {
    TempDir dir;
    const Trace trace = make_trace(200);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);

    serve::EvalServer server;
    server.start();

    const serve::EvaluateMsg shared = make_request(path);
    const std::string expected_shared = expected_text(trace, shared);

    constexpr std::size_t kClients = 8;
    constexpr std::size_t kRequests = 4;
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                serve::Client client(server.port());
                EXPECT_EQ(client.ping(c + 1).token, c + 1);
                for (std::size_t r = 0; r < kRequests; ++r) {
                    // Identical request (exercises coalescing + caches)...
                    const serve::ResultMsg same = client.evaluate(shared);
                    if (same.text != expected_shared) {
                        failures[c] = "shared response diverged";
                        return;
                    }
                    // ...then a client-distinct seed (real computation).
                    serve::EvaluateMsg own = shared;
                    own.seed = 100 + c;
                    const serve::ResultMsg distinct = client.evaluate(own);
                    if (distinct.text != expected_text(trace, own)) {
                        failures[c] = "distinct response diverged";
                        return;
                    }
                }
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;

    const serve::StatsReplyMsg stats = server.stats_snapshot();
    EXPECT_EQ(stats.requests_total, kClients * kRequests * 2);
    EXPECT_EQ(stats.rejected, 0u);
    // One evaluator fit total: every other request shared it.
    const serve::CacheStats cache = server.service().cache_stats();
    EXPECT_EQ(cache.evaluator_misses, 1u);
    EXPECT_GE(cache.evaluator_hits + stats.coalesced,
              kClients * kRequests * 2 - 1);
    server.stop_and_join();
}

TEST(ServeServerTest, ZeroQueueRejectsWithOverloaded) {
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(20), path);

    serve::ServerOptions options;
    options.max_queue = 0;
    serve::EvalServer server(options);
    server.start();

    serve::Client client(server.port());
    try {
        (void)client.evaluate(make_request(path));
        FAIL() << "expected kOverloaded";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::kOverloaded);
    }
    EXPECT_EQ(server.stats_snapshot().rejected, 1u);
    server.stop_and_join();
}

TEST(ServeServerTest, RequestErrorsClassifyOverTheWire) {
    TempDir dir;
    write_csv_file(make_trace(20), dir.file("trace.csv"));
    serve::EvalServer server;
    server.start();

    serve::Client client(server.port());
    try {
        (void)client.evaluate(make_request(dir.file("missing.csv")));
        FAIL() << "expected kNotFound";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::kNotFound);
    }
    // A malformed spec, an out-of-range arm included, is a bad request,
    // which a retrying client does not retry.
    for (const char* policy : {"sideways:3", "constant:99999999999999999999"}) {
        const serve::EvaluateMsg bad =
            make_request(dir.file("trace.csv"), policy);
        try {
            (void)client.evaluate(bad);
            ADD_FAILURE() << "expected kBadRequest for " << policy;
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.code(), serve::ErrorCode::kBadRequest) << policy;
        }
    }
    // Errors never poison the connection: the same client keeps working.
    EXPECT_EQ(client.ping(5).token, 5u);
    server.stop_and_join();
}

// ci_replicates is a u32 on the wire; counts outside 0 or
// 2..stats::kMaxBootstrapReplicates are refused before any evaluation (an
// int cast wraps 2^31 and up negative, which evaluate_seeded reads as
// "inherit the config": an answer with no CI at all), and the connection
// keeps answering.
TEST(ServeServerTest, OutOfRangeReplicateCountsAreBadRequests) {
    TempDir dir;
    const Trace trace = make_trace(20);
    write_csv_file(trace, dir.file("trace.csv"));
    serve::EvalServer server;
    server.start();

    serve::Client client(server.port());
    for (const std::uint32_t count :
         {1u, 100001u, 2147483648u, 4294967295u}) {
        serve::EvaluateMsg bad = make_request(dir.file("trace.csv"));
        bad.ci_replicates = count;
        try {
            (void)client.evaluate(bad);
            ADD_FAILURE() << "expected kBadRequest for " << count;
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.code(), serve::ErrorCode::kBadRequest) << count;
            EXPECT_NE(std::string(e.what()).find("ci_replicates"),
                      std::string::npos)
                << e.what();
        }
        serve::EvaluateMsg good = make_request(dir.file("trace.csv"));
        good.ci_replicates = 2;
        EXPECT_EQ(client.evaluate(good).text, expected_text(trace, good))
            << "after " << count;
    }
    EXPECT_EQ(server.service().cache_stats().trace_misses, 1u);
    server.stop_and_join();
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ServeServerTest, MalformedFrameGetsBadFrameReplyServerSurvives) {
    serve::EvalServer server;
    server.start();

    // A raw peer that speaks garbage: an unknown message kind. The server
    // must answer kBadFrame and close that session — and keep serving
    // well-formed clients.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const unsigned char garbage[] = {0x01, 0x00, 0x00, 0x00, 0x77};
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
              static_cast<ssize_t>(sizeof(garbage)));

    std::vector<unsigned char> reply(256);
    serve::FrameDecoder decoder;
    std::optional<serve::Frame> frame;
    while (!frame) {
        const ssize_t got = ::recv(fd, reply.data(), reply.size(), 0);
        ASSERT_GT(got, 0) << "connection closed before the error reply";
        decoder.feed(reply.data(), static_cast<std::size_t>(got));
        frame = decoder.next();
    }
    EXPECT_EQ(frame->kind, serve::MsgKind::kError);
    EXPECT_EQ(serve::decode_error(*frame).code, serve::ErrorCode::kBadFrame);
    ::close(fd);

    serve::Client healthy(server.port());
    EXPECT_EQ(healthy.ping(5).token, 5u);
    server.stop_and_join();
}
#endif

TEST(ServeServerTest, GracefulStopDrainsQueuedWork) {
    TempDir dir;
    const Trace trace = make_trace(400);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);

    serve::EvalServer server;
    server.start();

    // Queue several distinct requests from independent clients, then stop
    // while they are likely still queued: every one must get its reply
    // (stop drains the queue; it never drops admitted work).
    constexpr std::size_t kClients = 4;
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                serve::Client client(server.port());
                serve::EvaluateMsg m = make_request(path, "uniform", 50 + c);
                const serve::ResultMsg result = client.evaluate(m);
                if (result.text != expected_text(trace, m))
                    failures[c] = "response diverged";
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    // Stop only once every request has been admitted (the drain guarantee
    // covers admitted work, not bytes still in a socket buffer).
    while (server.stats_snapshot().requests_total < kClients)
        std::this_thread::yield();
    server.request_stop();
    for (std::thread& t : threads) t.join();
    server.stop_and_join();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
}

TEST(ServeServerTest, StartStopCyclesNeverHang) {
    // stop_and_join must return even when the stop and io-done wakeups
    // land while the dispatcher sits between its predicate check and its
    // wait. The cycles run on a worker under a watchdog: once no cycle has
    // finished for 10 s, the watchdog records the hang, tells the worker
    // to quit, and repeats the stop request so the stuck stop_and_join
    // returns: a lost wakeup fails the test instead of hanging it.
    constexpr int kCycles = 3000;
    std::mutex mutex;
    serve::EvalServer* stopping = nullptr; // guarded by mutex
    std::atomic<int> cycles{0};
    std::atomic<bool> quit{false};
    std::atomic<bool> done{false};
    std::thread worker([&] {
        for (int i = 0; i < kCycles && !quit.load(); ++i) {
            serve::EvalServer server;
            server.start();
            {
                std::lock_guard<std::mutex> lock(mutex);
                stopping = &server;
            }
            server.stop_and_join();
            {
                std::lock_guard<std::mutex> lock(mutex);
                stopping = nullptr;
            }
            cycles.fetch_add(1);
        }
        done.store(true);
    });
    int last = -1;
    auto last_change = std::chrono::steady_clock::now();
    while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const auto now = std::chrono::steady_clock::now();
        if (cycles.load() != last) {
            last = cycles.load();
            last_change = now;
            continue;
        }
        if (now - last_change < std::chrono::seconds(10)) continue;
        if (!quit.exchange(true))
            ADD_FAILURE() << "stop_and_join hung after " << last << " of "
                          << kCycles << " start/stop cycles";
        // One stop request per stalled window: a rescued stop_and_join
        // closes the server's wake pipe long before the next one.
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping != nullptr) stopping->request_stop();
        last_change = now;
    }
    EXPECT_EQ(cycles.load(), kCycles);
    worker.join();
}

// The process's open descriptors, one "fd -> target" entry each.
std::vector<std::string> open_descriptors() {
    std::vector<std::string> out;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        out.push_back(entry.path().filename().string() + " -> " +
                      std::filesystem::read_symlink(entry.path(), ec).string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

// A loopback TCP socket: listening (on a kernel-assigned port) or, with
// `connect_to` set, connected to that port; -1 when the connect fails.
int loopback_socket(std::uint16_t connect_to = 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(connect_to);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    auto* sa = reinterpret_cast<sockaddr*>(&addr);
    const bool ok = connect_to != 0
                        ? ::connect(fd, sa, sizeof(addr)) == 0
                        : ::bind(fd, sa, sizeof(addr)) == 0 &&
                              ::listen(fd, 1) == 0;
    if (ok) return fd;
    ::close(fd);
    return -1;
}

std::uint16_t bound_port(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    return ntohs(addr.sin_port);
}

// A start() that throws releases everything it acquired: the process has
// the descriptors it had before, while the server still exists and after
// it is gone, and the metrics listener it opened first refuses
// connections. Covers a busy serving port (after the metrics listener
// started), an unopenable journal, and MetricsHttpServer on its own.
TEST(ServeServerTest, FailedStartReleasesWhatItAcquired) {
    TempDir dir;
    const int busy = loopback_socket();
    ASSERT_GE(busy, 0);
    const int probe = loopback_socket(); // a port nothing will listen on
    ASSERT_GE(probe, 0);
    const std::uint16_t metrics_port = bound_port(probe);
    ::close(probe);

    serve::ServerOptions busy_port;
    busy_port.port = bound_port(busy);
    busy_port.metrics_port = metrics_port;
    serve::ServerOptions bad_journal;
    bad_journal.metrics_port = metrics_port;
    bad_journal.journal_path = dir.file("no-such-dir/journal.jsonl");
    for (const serve::ServerOptions& options : {busy_port, bad_journal}) {
        const std::vector<std::string> before = open_descriptors();
        {
            serve::EvalServer server(options);
            EXPECT_THROW(server.start(), std::runtime_error);
            EXPECT_EQ(open_descriptors(), before);
            const int client = loopback_socket(metrics_port);
            EXPECT_LT(client, 0) << "the metrics listener outlived start()";
            if (client >= 0) ::close(client);
        }
        EXPECT_EQ(open_descriptors(), before);
    }

    const std::vector<std::string> before = open_descriptors();
    {
        serve::MetricsHttpServer metrics(bound_port(busy));
        EXPECT_THROW(metrics.start(), std::runtime_error);
        EXPECT_EQ(open_descriptors(), before);
    }
    EXPECT_EQ(open_descriptors(), before);
    ::close(busy);
}

// --- warm-service gates -----------------------------------------------------
//
// One EvalServer on a 2,000-tuple cdn trace, asked for uniform/tabular with
// no CI: once its service has cached the trace and the evaluator, a repeat
// is only the estimator sweep. These cases hold the service's cost
// contracts: the cache pays for itself, the retry wrapper is free when
// nothing fails, and span tracing stays cheap. Two of them time requests,
// so the test_serve ctest entry is RUN_SERIAL.

double elapsed_ms(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// The middle value; for an even count, the upper of the two middle ones.
double median(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

class ServeWarmTest : public ::testing::Test {
protected:
    ServeWarmTest() {
        write_csv_file(make_trace(2000), dir_.file("trace.csv"));
        request_ = make_request(dir_.file("trace.csv"), "uniform");
        server_.start();
    }
    ~ServeWarmTest() override {
        obs::set_trace_enabled(false);
        obs::clear_trace_events();
    }

    // Median latency of `n` in-process requests.
    double batch_median_ms(int n) {
        std::vector<double> ms;
        for (int i = 0; i < n; ++i) {
            const auto start = std::chrono::steady_clock::now();
            (void)server_.service().evaluate(request_);
            ms.push_back(elapsed_ms(start));
        }
        return median(std::move(ms));
    }

    TempDir dir_;
    serve::EvaluateMsg request_;
    serve::EvalServer server_;
};

// The first request pays the CSV parse, the reward-model fit and the q-hat
// build; a warm one answers from the cached evaluator. Warm throughput must
// be at least 3x cold over the wire.
TEST_F(ServeWarmTest, WarmCacheServesAtLeastThreeTimesColdThroughput) {
    serve::Client client(server_.port());
    const auto cold_start = std::chrono::steady_clock::now();
    const serve::ResultMsg cold = client.evaluate(request_);
    const double cold_ms = elapsed_ms(cold_start);
    EXPECT_FALSE(cold.cache_hit);

    std::vector<double> warm_ms;
    for (int i = 0; i < 8; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const serve::ResultMsg warm = client.evaluate(request_);
        warm_ms.push_back(elapsed_ms(start));
        EXPECT_TRUE(warm.cache_hit);
        EXPECT_EQ(warm.text, cold.text);
    }
    const double warm_p50_ms = median(warm_ms);
    RecordProperty("warm_over_cold", std::to_string(cold_ms / warm_p50_ms));
    EXPECT_GE(cold_ms / warm_p50_ms, 3.0)
        << "cold " << cold_ms << " ms, warm p50 " << warm_p50_ms << " ms";
}

// Against a fault-free server every attempt succeeds first time, so the
// retry wrapper records no retry and no backoff.
TEST_F(ServeWarmTest, FaultFreeRetryingClientNeverRetries) {
    serve::RetryingClient client(server_.port());
    const std::string first = client.evaluate(request_).text;
    for (int i = 0; i < 8; ++i) EXPECT_EQ(client.evaluate(request_).text, first);
    EXPECT_EQ(client.retries(), 0u);
    EXPECT_EQ(client.virtual_backoff_ms(), 0.0);
}

// Span tracing on the warm path costs at most 15%: 8 rounds of 24 requests
// with tracing off and on. Each round is its own baseline, so slow drift
// cancels, and the order alternates between rounds, so the turbo decay the
// second batch of a round sees is charged to both modes. The overhead is
// the upper median of the per-round ratios, so host noise must spoil 4 of
// the 8 rounds to fail the gate, while a real 25-30% cost still fails it.
TEST_F(ServeWarmTest, TracingAddsAtMostFifteenPercentToWarmRequests) {
    (void)server_.service().evaluate(request_); // pay the cold build once
    std::vector<double> overhead_pct;
    for (int round = 0; round < 8; ++round) {
        const bool off_first = round % 2 == 0;
        obs::set_trace_enabled(!off_first);
        const double first_ms = batch_median_ms(24);
        obs::set_trace_enabled(off_first);
        const double second_ms = batch_median_ms(24);
        const double off_ms = off_first ? first_ms : second_ms;
        const double on_ms = off_first ? second_ms : first_ms;
        overhead_pct.push_back((on_ms / off_ms - 1.0) * 100.0);
    }
    obs::set_trace_enabled(false);
    RecordProperty("tracing_overhead_pct",
                   std::to_string(median(overhead_pct)));
    EXPECT_LE(median(overhead_pct), 15.0)
        << "per-round overheads (%): " << ::testing::PrintToString(overhead_pct);
}

// --- telemetry pipeline -----------------------------------------------------

TEST(ServeTelemetryTest, ResultTextIsByteIdenticalWithTracingOnAndOff) {
    // The determinism contract for the telemetry layer: toggling span
    // tracing must not move a single byte of the Result text.
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(120), path);

    serve::EvalServer server;
    server.start();
    serve::Client client(server.port());
    const serve::EvaluateMsg request = make_request(path);

    const std::string text_off = client.evaluate(request).text;
    obs::set_trace_enabled(true);
    const std::string text_on = client.evaluate(request).text;
    obs::set_trace_enabled(false);
    const std::string text_off_again = client.evaluate(request).text;
    server.stop_and_join();

    EXPECT_EQ(text_on, text_off);
    EXPECT_EQ(text_off_again, text_off);
}

TEST(ServeTelemetryTest, ServerEchoesTraceIdsAndWritesTheJournal) {
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(120), path);
    const std::string journal_path = dir.file("journal.jsonl");

    serve::ServerOptions options;
    options.journal_path = journal_path;
    serve::EvalServer server(options);
    server.start();
    serve::Client client(server.port());

    serve::EvaluateMsg tagged = make_request(path);
    tagged.trace_id = 0xabcdef0123456789ull;
    const serve::ResultMsg echoed = client.evaluate(tagged);
    EXPECT_EQ(echoed.trace_id, tagged.trace_id);
    // Phase timings: present, non-negative, and bounded by the total.
    EXPECT_GE(echoed.queue_ms, 0.0);
    EXPECT_GE(echoed.compute_ms, 0.0);
    EXPECT_GT(echoed.compute_ms + echoed.cache_ms + echoed.serialize_ms, 0.0);

    // A request without a client id gets a server-generated one.
    serve::EvaluateMsg untagged = make_request(path);
    untagged.seed = 77;
    EXPECT_NE(client.evaluate(untagged).trace_id, 0u);

    const serve::StatsReplyMsg stats = client.stats();
    EXPECT_EQ(stats.journal_lines, 2u);
    server.stop_and_join();

    // The journal holds one JSON line per answered request, and the
    // client-supplied id appears verbatim (hex form).
    std::ifstream in(journal_path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty()) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"trace_id\":\"0xabcdef0123456789\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"outcome\":\"ok\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"compute_ms\":"), std::string::npos);
}

// /metrics and dre_top end to end: after one Evaluate, the exposition
// holds the request counter's sample under its family name plus `_total`
// (once), and one dre_top scrape shows that counter and the queue-depth
// gauge.
TEST(ServeTelemetryTest, TopRendersTheMetricsEndpoint) {
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(120), path);

    serve::ServerOptions options;
    options.metrics_port = 0;
    serve::EvalServer server(options);
    server.start();
    serve::Client client(server.port());
    (void)client.evaluate(make_request(path));

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.metrics_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, get.data(), get.size(), 0),
              static_cast<ssize_t>(get.size()));
    std::string reply;
    char buf[4096];
    for (ssize_t got; (got = ::recv(fd, buf, sizeof(buf), 0)) > 0;)
        reply.append(buf, static_cast<std::size_t>(got));
    ::close(fd);
    EXPECT_NE(reply.find("\ndre_serve_requests_total "), std::string::npos)
        << reply;
    EXPECT_EQ(reply.find("_total_total"), std::string::npos) << reply;

    const std::string out = dir.file("top.txt");
    const std::string command =
        std::string(DRE_TOP_PATH) + " --metrics-port " +
        std::to_string(server.metrics_port()) + " > " + out + " 2>&1";
    const int status = std::system(command.c_str());
    server.stop_and_join();

    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    ASSERT_EQ(WEXITSTATUS(status), 0) << text;
    EXPECT_NE(text.find("\ndre_serve_requests_total"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\ndre_serve_queue_depth "), std::string::npos)
        << text;
}

} // namespace
