// dre::resil — deadlines, retries, and graceful degradation across the
// evaluation service (DESIGN.md §15): the resilience fields on the wire,
// deadline expiry in every phase (admission, queue, cache, compute,
// serialize), client retry/backoff against seeded
// serve.* network faults, brownout degraded results with the exact
// PR 5 rescaling semantics, torn-frame robustness, the io-thread
// watchdog, and the exactly-once journal contract under faults.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/evaluator.h"
#include "core/policy.h"
#include "core/policy_learning.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/metrics_http.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "stats/rng.h"
#include "trace/csv.h"

namespace {

using namespace dre;

class TempDir {
public:
    TempDir() {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = std::filesystem::temp_directory_path() /
                (std::string("dre_resil_") + info->test_suite_name() + "_" +
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

// Arms the process-global injector for one test and disarms on exit, so
// fault schedules never leak across tests.
class InjectorGuard {
public:
    explicit InjectorGuard(const std::string& spec = "",
                           std::uint64_t seed = 99) {
        if (!spec.empty())
            fault::Injector::global().configure_spec(spec, seed);
    }
    ~InjectorGuard() { fault::Injector::global().reset(); }
};

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

// --- protocol: resilience fields -------------------------------------------

serve::Frame pump_one(const std::vector<unsigned char>& wire) {
    serve::FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    auto frame = decoder.next();
    EXPECT_TRUE(frame.has_value());
    return *frame;
}

TEST(ResilProtocolTest, DeadlineAndDegradedFieldsRoundTrip) {
    serve::EvaluateMsg req;
    req.trace = "t.csv";
    req.policy = "uniform";
    req.model = "tabular";
    req.trace_id = 12345;
    req.deadline_ms = 250;
    const serve::EvaluateMsg req_back =
        serve::decode_evaluate(pump_one(serve::encode_evaluate(req)));
    EXPECT_EQ(req_back.deadline_ms, 250u);
    EXPECT_EQ(req_back.trace_id, 12345u);

    serve::ResultMsg result;
    result.text = "x\n";
    result.degraded = true;
    result.coverage = 0.53125; // exactly representable; bit-exact on the wire
    const serve::ResultMsg result_back =
        serve::decode_result(pump_one(serve::encode_result(result)));
    EXPECT_TRUE(result_back.degraded);
    EXPECT_EQ(result_back.coverage, 0.53125);

    serve::StatsReplyMsg stats;
    stats.deadline_exceeded = 3;
    stats.shed = 2;
    stats.brownout = 5;
    stats.sessions_reaped = 1;
    const serve::StatsReplyMsg stats_back =
        serve::decode_stats_reply(pump_one(serve::encode_stats_reply(stats)));
    EXPECT_EQ(stats_back.deadline_exceeded, 3u);
    EXPECT_EQ(stats_back.shed, 2u);
    EXPECT_EQ(stats_back.brownout, 5u);
    EXPECT_EQ(stats_back.sessions_reaped, 1u);

    const serve::ErrorMsg err = serve::decode_error(pump_one(serve::encode_error(
        {serve::ErrorCode::kDeadlineExceeded, "budget spent"})));
    EXPECT_EQ(err.code, serve::ErrorCode::kDeadlineExceeded);
    EXPECT_STREQ(serve::to_string(serve::ErrorCode::kDeadlineExceeded),
                 "deadline-exceeded");
}

// --- service: deadline phases + degraded exactness --------------------------

TEST(ResilServiceTest, DeadlineExpiresInEachPhase) {
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(60), path);
    serve::EvalService service;
    const serve::EvaluateMsg request = make_request(path);

    // The service checks the deadline at three phase boundaries, in order:
    // cache, compute, serialize. A counting predicate pins expiry to each.
    for (const auto& [expire_at, phase] :
         std::vector<std::pair<int, std::string>>{
             {1, "cache"}, {2, "compute"}, {3, "serialize"}}) {
        int calls = 0;
        const int limit = expire_at;
        const serve::DeadlineFn fn = [&calls, limit] {
            return ++calls >= limit;
        };
        try {
            (void)service.evaluate(request, nullptr, fn);
            FAIL() << "expected DeadlineExceeded in " << phase;
        } catch (const serve::DeadlineExceeded& e) {
            EXPECT_EQ(e.phase(), phase);
            EXPECT_NE(std::string(e.what()).find(phase), std::string::npos);
        }
    }

    // No deadline (empty fn) and a never-expiring one both succeed.
    const serve::ResultMsg plain = service.evaluate(request);
    const serve::ResultMsg never =
        service.evaluate(request, nullptr, [] { return false; });
    EXPECT_EQ(plain.text, never.text);
}

TEST(ResilServiceTest, DegradedEvaluationUsesExactRescaledPrefix) {
    TempDir dir;
    const Trace trace = make_trace(200);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);

    serve::EvalService service;
    serve::EvaluateMsg request = make_request(path, "greedy:tabular", 5);
    request.ci_replicates = 100;

    const double coverage = 0.5;
    const serve::ResultMsg degraded =
        service.evaluate_degraded(request, coverage);
    EXPECT_TRUE(degraded.degraded);
    EXPECT_GT(degraded.coverage, 0.0);
    EXPECT_LE(degraded.coverage, 1.0);
    EXPECT_NE(degraded.text.find("degraded: brownout evaluated"),
              std::string::npos);

    // Reproduce the contract by hand: the shortest prefix that meets the
    // coverage target AND spans the full decision space (so the fitted
    // policy stays dimensionally valid), estimates computed over exactly
    // those tuples (denominators rescale automatically — the evaluator
    // only ever sees the prefix), DR CI half-widths widened by 1/coverage.
    const std::size_t n = trace.size();
    std::size_t len = static_cast<std::size_t>(
        std::ceil(coverage * static_cast<double>(n)));
    const std::size_t max_decision = trace.num_decisions() - 1;
    std::size_t need = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::size_t>(trace[i].decision) == max_decision) {
            need = i + 1;
            break;
        }
    }
    if (need > len) len = need;
    const double actual = static_cast<double>(len) / static_cast<double>(n);
    EXPECT_EQ(degraded.coverage, actual);

    core::EvaluationConfig config;
    config.reward_model = core::parse_reward_model_kind(request.model);
    Trace prefix(std::vector<LoggedTuple>(
        trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(len)));
    const core::Evaluator evaluator(std::move(prefix), config, stats::Rng(1));
    const auto policy = core::parse_policy_spec(request.policy, trace,
                                                trace.num_decisions());
    core::PolicyEvaluation result = evaluator.evaluate_seeded(
        *policy, stats::Rng(request.seed),
        static_cast<int>(request.ci_replicates), 0.95);
    EXPECT_EQ(degraded.dr, result.dr.value); // bit-exact prefix estimate
    ASSERT_TRUE(result.dr_ci.has_value());
    stats::ConfidenceInterval& ci = *result.dr_ci;
    const stats::ConfidenceInterval unwidened = ci;
    ci.lower = ci.point - (ci.point - ci.lower) / actual;
    ci.upper = ci.point + (ci.upper - ci.point) / actual;
    EXPECT_LE(ci.lower, unwidened.lower);
    EXPECT_GE(ci.upper, unwidened.upper);

    char header[96];
    std::snprintf(header, sizeof(header), "trace: %zu tuples, %zu decisions\n",
                  trace.size(), trace.num_decisions());
    char footer[160];
    std::snprintf(footer, sizeof(footer),
                  "degraded: brownout evaluated %zu/%zu tuples "
                  "(coverage %.6f); DR CI half-widths widened by 1/coverage\n",
                  len, trace.size(), actual);
    const std::string expected =
        header + core::make_policy_report(request.policy, result).to_text() +
        footer;
    EXPECT_EQ(degraded.text, expected);

    // And it must differ from the full-fidelity bytes: a degraded answer
    // never masquerades as the real one.
    EXPECT_NE(degraded.text, expected_text(trace, request));

    // Determinism: the same degraded request re-renders identically.
    EXPECT_EQ(service.evaluate_degraded(request, coverage).text,
              degraded.text);
}

// --- client: retries and hedge-free backoff ---------------------------------

TEST(ResilRetryTest, DispatchTransientFaultIsRetriedWithVirtualBackoff) {
    TempDir dir;
    const Trace trace = make_trace(120);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    InjectorGuard guard("serve.dispatch:nth=1,kind=transient", 11);

    serve::EvalServer server;
    server.start();
    serve::RetryingClient client(server.port());

    const serve::EvaluateMsg request = make_request(path);
    const serve::ResultMsg result = client.evaluate(request);
    EXPECT_EQ(result.text, expected_text(trace, request));
    EXPECT_EQ(client.retries(), 1u);
    EXPECT_EQ(client.virtual_backoff_ms(), 1.0); // base * multiplier^0
    server.stop_and_join();
}

TEST(ResilRetryTest, PermanentDispatchFaultExhaustsTheRetryBudget) {
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(60), path);
    InjectorGuard guard("serve.dispatch:every=1,kind=permanent", 11);

    serve::EvalServer server;
    server.start();
    serve::RetryingClient client(server.port(), 3);

    try {
        (void)client.evaluate(make_request(path));
        FAIL() << "expected kInternal after retry exhaustion";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::kInternal);
    }
    EXPECT_EQ(client.retries(), 2u);
    EXPECT_EQ(client.virtual_backoff_ms(), 1.0 + 2.0); // 1*2^0 + 1*2^1
    server.stop_and_join();
}

TEST(ResilRetryTest, DroppedAcceptIsRetriedOnAFreshConnection) {
    TempDir dir;
    const Trace trace = make_trace(120);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    InjectorGuard guard("serve.accept:nth=1,kind=transient", 11);

    serve::EvalServer server;
    server.start();
    serve::RetryingClient client(server.port());

    const serve::EvaluateMsg request = make_request(path);
    const serve::ResultMsg result = client.evaluate(request);
    EXPECT_EQ(result.text, expected_text(trace, request));
    EXPECT_GE(client.retries(), 1u);
    server.stop_and_join();
}

TEST(ResilRetryTest, ReadTransientFaultDropsSessionClientRecovers) {
    TempDir dir;
    const Trace trace = make_trace(120);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    // Read index 0 is the Hello frame; index 1 is the first Evaluate.
    InjectorGuard guard("serve.read:nth=2,kind=transient", 11);

    serve::EvalServer server;
    server.start();
    serve::RetryingClient client(server.port());

    const serve::EvaluateMsg request = make_request(path);
    const serve::ResultMsg result = client.evaluate(request);
    EXPECT_EQ(result.text, expected_text(trace, request));
    EXPECT_GE(client.retries(), 1u);
    server.stop_and_join();
}

TEST(ResilRetryTest, SlowWritesDeliverByteIdenticalResponses) {
    TempDir dir;
    const Trace trace = make_trace(120);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    // Every server write trickles out in tiny chunks; no delivered byte
    // may change.
    InjectorGuard guard("serve.write:every=1,kind=slow", 11);

    serve::EvalServer server;
    server.start();
    serve::Client client(server.port()); // plain client: no retries needed

    const serve::EvaluateMsg request = make_request(path);
    EXPECT_EQ(client.evaluate(request).text, expected_text(trace, request));
    EXPECT_EQ(client.ping(42).token, 42u);
    server.stop_and_join();
}

TEST(ResilRetryTest, WriteTransientFaultOnResultIsRetried) {
    TempDir dir;
    const Trace trace = make_trace(120);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    // Write index 0 is the Hello reply; index 1 is the first Result frame,
    // which is dropped and the session closed mid-reply.
    InjectorGuard guard("serve.write:nth=2,kind=transient", 11);

    serve::EvalServer server;
    server.start();
    serve::RetryingClient client(server.port());

    const serve::EvaluateMsg request = make_request(path);
    const serve::ResultMsg result = client.evaluate(request);
    EXPECT_EQ(result.text, expected_text(trace, request));
    EXPECT_EQ(client.retries(), 1u);
    server.stop_and_join();
}

// --- raw-socket robustness --------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

int connect_raw(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

TEST(ResilTornFrameTest, TruncationAtEveryBoundaryLeavesTheServerAlive) {
    serve::EvalServer server;
    server.start();

    // A well-formed Evaluate frame, cut at every possible byte boundary;
    // each torn prefix arrives on its own connection which then closes.
    // The server must survive them all and keep answering.
    serve::EvaluateMsg request = make_request("no/such/trace.csv");
    request.deadline_ms = 100;
    const std::vector<unsigned char> wire = serve::encode_evaluate(request);
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
        const int fd = connect_raw(server.port());
        ASSERT_EQ(::send(fd, wire.data(), cut, MSG_NOSIGNAL),
                  static_cast<ssize_t>(cut));
        ::close(fd);
    }

    serve::Client healthy(server.port());
    EXPECT_EQ(healthy.ping(7).token, 7u);
    server.stop_and_join();
}

TEST(ResilTornFrameTest, ReadCorruptionYieldsBadFrameAndServerSurvives) {
    // serve.read corruption flips a bit in the length prefix. The frame is
    // sized so the corrupted length is *smaller* (bit 6 of the LSB set),
    // which tears the frame mid-payload: the decode must fail cleanly with
    // a kBadFrame reply, never a crash or a hang.
    InjectorGuard guard("serve.read:nth=2,kind=corruption", 11);
    serve::EvalServer server;
    server.start();

    const int fd = connect_raw(server.port());
    const std::vector<unsigned char> hello = serve::encode_hello({1});
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(hello.size()));
    serve::FrameDecoder decoder;
    unsigned char buf[4096];
    std::optional<serve::Frame> frame;
    while (!frame) {
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(got, 0);
        decoder.feed(buf, static_cast<std::size_t>(got));
        frame = decoder.next();
    }
    ASSERT_EQ(frame->kind, serve::MsgKind::kHello);

    // trace of 38 bytes + "p" + "m" makes the frame length 81 = 0x51:
    // bit 6 set, so the injected flip shrinks it to 17 and the decoder
    // reads a torn Evaluate.
    serve::EvaluateMsg request;
    request.trace = std::string(38, 'x');
    request.policy = "p";
    request.model = "m";
    const std::vector<unsigned char> wire = serve::encode_evaluate(request);
    ASSERT_EQ(wire[0], 0x51);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    frame.reset();
    while (!frame) {
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(got, 0) << "connection closed before the error reply";
        decoder.feed(buf, static_cast<std::size_t>(got));
        frame = decoder.next();
    }
    EXPECT_EQ(frame->kind, serve::MsgKind::kError);
    EXPECT_EQ(serve::decode_error(*frame).code, serve::ErrorCode::kBadFrame);
    ::close(fd);

    serve::Client healthy(server.port());
    EXPECT_EQ(healthy.ping(9).token, 9u);
    server.stop_and_join();
}

TEST(ResilWatchdogTest, IdleHalfFrameSessionIsReaped) {
    serve::ServerOptions options;
    options.idle_timeout_ms = 50;
    serve::EvalServer server(options);
    server.start();

    // A peer wedged mid-frame: two bytes of a length prefix, then
    // silence. The watchdog must close it (recv sees EOF) well within a
    // few timeout periods.
    const int fd = connect_raw(server.port());
    const unsigned char half[] = {0x10, 0x00};
    ASSERT_EQ(::send(fd, half, sizeof(half), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(half)));

    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "watchdog never closed the session";
    unsigned char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0); // clean EOF, not garbage
    ::close(fd);

    EXPECT_GE(server.stats_snapshot().sessions_reaped, 1u);
    // An active client with a request in flight is never "idle": plain
    // round trips still work on a watchdog-armed server.
    serve::Client healthy(server.port());
    EXPECT_EQ(healthy.ping(3).token, 3u);
    server.stop_and_join();
}

TEST(ResilMetricsTest, SlowLorisConnectionCannotStarveTheListener) {
    serve::MetricsHttpServer metrics(0, 100); // 100 ms header budget
    metrics.start();

    // The slow loris: opens a connection, sends half a request line, and
    // stalls. The listener must cut it off after the budget and then
    // answer a healthy probe promptly.
    const int loris = connect_raw(metrics.port());
    ASSERT_EQ(::send(loris, "GET /he", 7, MSG_NOSIGNAL), 7);

    const int healthy = connect_raw(metrics.port());
    const char probe[] = "GET /healthz HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(healthy, probe, sizeof(probe) - 1, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(probe) - 1));
    std::string reply;
    char buf[512];
    pollfd pfd{};
    pfd.fd = healthy;
    pfd.events = POLLIN;
    for (;;) {
        ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "healthz starved by the loris";
        const ssize_t got = ::recv(healthy, buf, sizeof(buf), 0);
        ASSERT_GE(got, 0);
        if (got == 0) break;
        reply.append(buf, static_cast<std::size_t>(got));
    }
    EXPECT_NE(reply.find("200"), std::string::npos);
    EXPECT_NE(reply.find("ok"), std::string::npos);
    ::close(healthy);
    ::close(loris);
    metrics.stop_and_join();
}

// --- live server: deadlines, shedding, brownout -----------------------------

// A trace file the test controls: a named pipe whose load — on the server's
// single dispatcher — blocks until release() writes the CSV into it. A job
// on this path therefore holds the dispatcher busy for exactly as long as
// the test needs, however fast the evaluation itself runs.
class GatedTrace {
public:
    GatedTrace(std::string path, const Trace& trace) : path_(std::move(path)) {
        std::ostringstream csv;
        write_csv(trace, csv);
        content_ = csv.str();
        if (::mkfifo(path_.c_str(), 0600) != 0)
            throw std::runtime_error("mkfifo " + path_ + " failed");
    }
    GatedTrace(const GatedTrace&) = delete;
    GatedTrace& operator=(const GatedTrace&) = delete;
    // Never leave the dispatcher blocked, whatever the test did.
    ~GatedTrace() { release(); }

    const std::string& path() const { return path_; }

    // Waits up to `timeout` for a reader — the dispatcher loading this
    // trace — to open the pipe. True once it has: the dispatcher is busy
    // with the gated job from then until release().
    bool wait_for_reader(std::chrono::milliseconds timeout) {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        while (fd_ < 0) {
            fd_ = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
            if (fd_ >= 0) break;
            if (errno != ENXIO || std::chrono::steady_clock::now() >= deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }

    // Writes the CSV and closes the pipe, so the blocked load completes.
    // With no reader in sight the pipe becomes a plain file instead, so a
    // load that arrives later cannot block forever.
    void release() {
        if (released_) return;
        released_ = true;
        if (fd_ < 0 && !wait_for_reader(std::chrono::seconds(5))) {
            std::filesystem::remove(path_);
            std::ofstream(path_) << content_;
            return;
        }
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) & ~O_NONBLOCK);
        for (std::size_t done = 0; done < content_.size();) {
            const ssize_t wrote =
                ::write(fd_, content_.data() + done, content_.size() - done);
            if (wrote < 0 && errno == EINTR) continue;
            if (wrote <= 0) break;
            done += static_cast<std::size_t>(wrote);
        }
        ::close(fd_);
        fd_ = -1;
    }

private:
    std::string path_;
    std::string content_;
    int fd_ = -1;
    bool released_ = false;
};

// Polls `done` for up to 30 s, so a lost race fails with a message naming
// what never happened instead of hanging the suite.
template <typename Pred>
bool wait_until(const Pred& done, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            ADD_FAILURE() << "timed out waiting until " << what;
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

constexpr std::chrono::seconds kGateTimeout{30};

TEST(ResilServerTest, QueuedRequestPastItsDeadlineGetsDeadlineExceeded) {
    TempDir dir;
    const Trace trace = make_trace(300);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    GatedTrace gate(dir.file("gated.csv"), trace);

    serve::EvalServer server;
    server.start();

    // A heavy job occupies the single dispatcher: its trace load blocks on
    // the gate until the test releases it...
    serve::EvaluateMsg heavy = make_request(gate.path(), "greedy:tabular", 1);
    heavy.ci_replicates = 20000;
    std::string heavy_failure;
    std::thread blocker([&] {
        try {
            serve::Client client(server.port());
            if (client.evaluate(heavy).text != expected_text(trace, heavy))
                heavy_failure = "heavy response diverged";
        } catch (const std::exception& e) {
            heavy_failure = e.what();
        }
    });
    EXPECT_TRUE(gate.wait_for_reader(kGateTimeout))
        << "the dispatcher never started the heavy job";

    // ...so a 1 ms-deadline request admitted behind it expires in the
    // queue phase. (No job has finished yet, so the EWMA is zero and
    // admission shedding stays out of the way — this tests the
    // dispatcher-side check.)
    serve::EvaluateMsg hurried = make_request(path, "uniform", 2);
    hurried.deadline_ms = 1;
    std::string hurried_outcome = "no reply";
    serve::ErrorCode hurried_code = serve::ErrorCode::kInternal;
    std::thread hurried_thread([&] {
        try {
            serve::Client client(server.port());
            (void)client.evaluate(hurried);
            hurried_outcome = "answered";
        } catch (const serve::ServeError& e) {
            hurried_code = e.code();
            hurried_outcome = e.what();
        } catch (const std::exception& e) {
            hurried_outcome = e.what();
        }
    });
    wait_until([&] { return server.stats_snapshot().queue_depth >= 1; },
               "the hurried request is queued");
    // Its 1 ms budget runs out while it waits behind the gated job.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gate.release();
    blocker.join();
    hurried_thread.join();

    EXPECT_EQ(hurried_code, serve::ErrorCode::kDeadlineExceeded)
        << hurried_outcome;
    EXPECT_NE(hurried_outcome.find("queue"), std::string::npos)
        << hurried_outcome;
    EXPECT_EQ(heavy_failure, "");
    const serve::StatsReplyMsg stats = server.stats_snapshot();
    EXPECT_GE(stats.deadline_exceeded, 1u);
    EXPECT_EQ(stats.shed, 0u);
    server.stop_and_join();
}

TEST(ResilServerTest, AdmissionShedsUnmeetableDeadlines) {
    TempDir dir;
    const Trace trace = make_trace(300);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    GatedTrace gate(dir.file("gated.csv"), trace);

    serve::EvalServer server;
    server.start();
    serve::Client client(server.port());

    // Prime the service-time EWMA with one heavy completed job, held on
    // the gate for 20 ms so it lasts well over 1 ms however fast it
    // computes...
    serve::EvaluateMsg heavy = make_request(gate.path(), "greedy:tabular", 1);
    heavy.ci_replicates = 20000;
    std::string heavy_text;
    std::thread blocker([&] {
        try {
            heavy_text = client.evaluate(heavy).text;
        } catch (const std::exception& e) {
            heavy_text = e.what();
        }
    });
    EXPECT_TRUE(gate.wait_for_reader(kGateTimeout))
        << "the dispatcher never started the heavy job";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();
    blocker.join();
    EXPECT_EQ(heavy_text, expected_text(trace, heavy));

    // ...then a 1 ms deadline is provably unmeetable and is shed at
    // admission, before ever entering the queue.
    serve::EvaluateMsg hurried = make_request(path, "uniform", 2);
    hurried.deadline_ms = 1;
    try {
        (void)client.evaluate(hurried);
        FAIL() << "expected kDeadlineExceeded (shed)";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::kDeadlineExceeded);
    }
    const serve::StatsReplyMsg stats = server.stats_snapshot();
    EXPECT_GE(stats.shed, 1u);
    EXPECT_GE(stats.deadline_exceeded, 1u);

    // A generous deadline still sails through.
    serve::EvaluateMsg relaxed = make_request(path, "uniform", 3);
    relaxed.deadline_ms = 600000;
    EXPECT_EQ(client.evaluate(relaxed).text, expected_text(trace, relaxed));
    server.stop_and_join();
}

TEST(ResilServerTest, BrownoutServesDegradedAndCachedResultsUnderLoad) {
    TempDir dir;
    const Trace trace = make_trace(300);
    const std::string path = dir.file("trace.csv");
    write_csv_file(trace, path);
    GatedTrace gate(dir.file("gated.csv"), trace);

    serve::ServerOptions options;
    options.brownout_watermark = 1;
    options.brownout_coverage = 0.5;
    serve::EvalServer server(options);
    server.start();
    serve::Client client(server.port());

    // Unloaded server: full fidelity, never degraded. This also fills the
    // response cache for the cache-only brownout path below.
    const serve::EvaluateMsg warm = make_request(path, "uniform", 9);
    const serve::ResultMsg warm_result = client.evaluate(warm);
    EXPECT_FALSE(warm_result.degraded);
    EXPECT_EQ(warm_result.coverage, 1.0);
    EXPECT_EQ(warm_result.text, expected_text(trace, warm));

    // Occupy the dispatcher with a heavy job held on the gate and park one
    // full-fidelity job in the queue, so the watermark (1) is reached.
    serve::EvaluateMsg heavy = make_request(gate.path(), "greedy:tabular", 1);
    heavy.ci_replicates = 20000;
    std::string bg_failure;
    std::thread blocker([&] {
        try {
            serve::Client bg(server.port());
            if (bg.evaluate(heavy).text != expected_text(trace, heavy))
                bg_failure = "heavy response diverged";
        } catch (const std::exception& e) {
            bg_failure = e.what();
        }
    });
    // The gate's reader is the dispatcher itself: once it has the pipe
    // open, the heavy job is being computed, not waiting in the queue.
    EXPECT_TRUE(gate.wait_for_reader(kGateTimeout))
        << "the dispatcher never started the heavy job";
    // ...then park a full-fidelity job behind it.
    serve::EvaluateMsg parked = make_request(path, "uniform", 10);
    std::string parked_text;
    std::string parked_failure;
    std::thread parked_thread([&] {
        try {
            serve::Client bg(server.port());
            parked_text = bg.evaluate(parked).text;
        } catch (const std::exception& e) {
            parked_failure = e.what();
        }
    });
    wait_until([&] { return server.stats_snapshot().queue_depth >= 1; },
               "the parked job is queued");

    // A new unique request now browns out: degraded compute with the
    // exact service-level semantics (byte-identical to a direct
    // evaluate_degraded at the same coverage). Its degraded job queues
    // behind the parked one, so it is answered after the gate opens.
    const serve::EvaluateMsg fresh = make_request(path, "uniform", 11);
    serve::ResultMsg degraded;
    std::string fresh_failure;
    std::thread fresh_thread([&] {
        try {
            serve::Client bg(server.port());
            degraded = bg.evaluate(fresh);
        } catch (const std::exception& e) {
            fresh_failure = e.what();
        }
    });
    wait_until([&] { return server.stats_snapshot().brownout >= 1; },
               "the fresh request is admitted under brownout");

    // A repeat of the warm request is answered inline from the response
    // cache — identical bytes, no degradation, no queueing — while the
    // dispatcher is still held.
    const serve::ResultMsg cached = client.evaluate(warm);
    EXPECT_FALSE(cached.degraded);
    EXPECT_EQ(cached.text, warm_result.text);

    gate.release();
    blocker.join();
    parked_thread.join();
    fresh_thread.join();
    EXPECT_EQ(bg_failure, "");
    EXPECT_EQ(parked_failure, "");
    EXPECT_EQ(fresh_failure, "");
    EXPECT_TRUE(degraded.degraded);
    EXPECT_GT(degraded.coverage, 0.0);
    EXPECT_LT(degraded.coverage, 1.0);
    EXPECT_NE(degraded.text.find("degraded: brownout evaluated"),
              std::string::npos);
    serve::EvalService reference;
    EXPECT_EQ(degraded.text,
              reference.evaluate_degraded(fresh, 0.5).text);
    // The parked full-fidelity job was admitted before the brownout and
    // is never degraded retroactively.
    EXPECT_EQ(parked_text, expected_text(trace, parked));
    // Both brownout paths ran: the degraded compute and the cache answer.
    EXPECT_EQ(server.stats_snapshot().brownout, 2u);
    server.stop_and_join();
}

#endif // unix

// --- journal: exactly-once under faults -------------------------------------

TEST(ResilJournalTest, ExactlyOneTerminalLinePerAdmittedRequestUnderFaults) {
    TempDir dir;
    const std::string path = dir.file("trace.csv");
    write_csv_file(make_trace(120), path);
    const std::string journal_path = dir.file("journal.jsonl");
    InjectorGuard guard("serve.dispatch:p=0.4,kind=transient", 7);

    serve::ServerOptions options;
    options.journal_path = journal_path;
    serve::EvalServer server(options);
    server.start();

    serve::RetryingClient client(server.port(), 8);
    for (std::uint64_t s = 0; s < 10; ++s) {
        serve::EvaluateMsg request = make_request(path, "uniform", 100 + s);
        EXPECT_FALSE(client.evaluate(request).text.empty());
    }

    const std::uint64_t admitted = server.stats_snapshot().requests_total;
    EXPECT_GE(admitted, 10u); // retries re-admit, so usually more
    server.stop_and_join();

    std::ifstream in(journal_path);
    ASSERT_TRUE(in.good());
    std::uint64_t lines = 0, errors = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.empty()) continue;
        ++lines;
        if (line.find("\"outcome\":\"error\"") != std::string::npos) ++errors;
    }
    // The contract: one terminal line per admitted request — not zero for
    // requests that died to an injected fault, not two for any request.
    EXPECT_EQ(lines, admitted);
    EXPECT_EQ(errors, admitted - 10u); // every fault journaled as an error
}

} // namespace
