// serve_open: an in-process EvalServer with warm caches, driven over the
// loopback interface by an open-loop generator.
//
// Requests rotate through `uniform` and `constant:0..11` on one trace with
// --ci 0, the tabular model and a distinct seed each, so nothing coalesces
// and each one is a few milliseconds of estimator work: wire codec,
// admission, FIFO dispatch, render and queueing are a visible share of it.
//
// The run is cut into kCycles cycles of lo -> hi -> saturation blocks
// followed by fresh set-ups, so a slow phase of the host lands on every
// phase alike instead of on one of them.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using namespace dre;

namespace {

// Offered loads and the latency limit, picked once on the parent commit
// from its saturation throughput and latencies ("How lo, hi and the limit
// were picked" in README.md).
constexpr double kLoRps = 50.0;
constexpr double kHiRps = 120.0;
constexpr double kLimitMs = 25.0;
constexpr int kCycles = 8;
// Shares of one cycle; the remainder covers the fresh set-up and drains.
constexpr double kLoShare = 0.30;
constexpr double kHiShare = 0.36;
constexpr double kSatShare = 0.28;
constexpr int kConnections = 2;
// A fresh set-up is tens of milliseconds; several per cycle keep its median
// steady.
constexpr int kSetupsPerCycle = 5;
// Longest wait for the replies of a finished block before the requests
// still unanswered count as failed.
constexpr std::int64_t kDrainTimeoutNs = 5'000'000'000;
// Seed streams of the request keys (distinct per request) and of the
// Poisson schedule.
constexpr std::uint64_t kColdSeedBase = 1ull << 40;
constexpr std::uint64_t kArrivalStream = 0x5eed;

// Outcomes of the requests sent in one phase, over all its blocks.
struct PhaseStats {
    const char* name = "";
    std::vector<double> latency_ms; // correct replies, from the due time
    std::vector<double> traced_ms, untraced_ms; // latency split for overhead
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t within_limit = 0;
    std::uint64_t ok_in_block = 0; // correct replies that landed in-block
    double block_s = 0.0;
    // The server's phase timings from the Result tails.
    std::vector<double> queue_ms, cache_ms, compute_ms, serialize_ms;
};

// Generator health and server busy time over all traffic.
struct Tails {
    std::vector<double> lag_ms;
    double busy_ms = 0.0;
    double traffic_s = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
};

serve::EvaluateMsg make_request(const std::string& trace_path,
                                const std::string& policy,
                                std::uint64_t seed) {
    serve::EvaluateMsg m;
    m.trace = trace_path;
    m.policy = policy;
    m.model = "tabular";
    m.ci_replicates = 0;
    m.seed = seed;
    return m;
}

// Gate (c): direct EvalService::evaluate answers, on a service of their
// own, for a deterministic sample of keys: two seeds per policy. With
// --ci 0 the seed draws nothing, so both must agree, and every Result
// for that policy must equal them byte for byte.
std::vector<std::string> direct_texts(const std::string& trace_path,
                                      const std::vector<std::string>& policies,
                                      std::uint64_t seed, Results& results) {
    serve::EvalService service;
    std::vector<std::string> texts;
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::string first;
        for (std::uint64_t k = 0; k < 2; ++k) {
            const serve::ResultMsg r = service.evaluate(make_request(
                trace_path, policies[p],
                mix_seed(seed, kColdSeedBase / 2 + 2 * p + k)));
            results.attempted();
            if (k == 0) {
                first = r.text;
            } else if (r.text != first) {
                results.failed("gate c: direct answers for " + policies[p] +
                               " differ between seeds");
            }
        }
        texts.push_back(first);
    }
    return texts;
}

// EvalServer::stop_and_join() can hang: the io thread publishes io_done_
// and notifies the dispatcher without holding queue_mutex_, so a dispatcher
// that is re-checking its wait predicate at that moment misses the wakeup
// for good. Asking for the stop first and joining a few milliseconds later,
// once the idle io thread has exited, lets stop_and_join()'s own notify
// find io_done_ already set.
void stop_server(serve::EvalServer& server) {
    server.request_stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop_and_join();
}

// Server start plus the first cold request per key, through the public
// Client. Returns milliseconds; the server stays up.
double warm_up(serve::EvalServer& server, const std::string& trace_path,
               const std::vector<std::string>& policies,
               const std::vector<std::string>& expected, std::uint64_t seed,
               std::uint64_t& cold_index, Results& results, SpanLog& log) {
    ScopedSpan all(log, "setup", log.next_trace_id());
    server.start();
    serve::Client client(server.port());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        ScopedSpan s(log, "cold_request", all.trace_id(), all.id());
        const serve::ResultMsg r = client.evaluate(make_request(
            trace_path, policies[p], mix_seed(seed, kColdSeedBase + cold_index++)));
        results.attempted();
        if (r.text != expected[p])
            results.failed("cold reply for " + policies[p] +
                           " differs from EvalService::evaluate");
    }
    return all.finish();
}

double fresh_setup(const std::string& trace_path,
                   const std::vector<std::string>& policies,
                   const std::vector<std::string>& expected,
                   std::uint64_t seed, std::uint64_t& cold_index,
                   Results& results, SpanLog& log) {
    serve::EvalServer server;
    const double ms = warm_up(server, trace_path, policies, expected, seed,
                              cold_index, results, log);
    stop_server(server);
    return ms;
}

int connect_loopback(std::uint16_t port, serve::FrameDecoder& decoder) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("loadgen: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("loadgen: connect failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const auto hello = serve::encode_hello({serve::kProtocolVersion});
    if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<::ssize_t>(hello.size())) {
        ::close(fd);
        throw std::runtime_error("loadgen: hello send failed");
    }
    unsigned char buffer[256];
    for (;;) {
        if (auto frame = decoder.next()) {
            (void)serve::decode_hello(*frame);
            return fd;
        }
        const ::ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got <= 0) {
            ::close(fd);
            throw std::runtime_error("loadgen: hello reply failed");
        }
        decoder.feed(buffer, static_cast<std::size_t>(got));
    }
}

// Single-threaded load generator over kConnections pipelined connections.
// Open-loop blocks send on a seeded Poisson schedule whatever the replies
// do, and time each request from when it was due, so a stall is charged to
// every request it delays. Saturation blocks keep exactly one request
// outstanding per connection.
class LoadGen {
public:
    LoadGen(std::uint16_t port, std::string trace_path,
            std::vector<std::string> policies,
            std::vector<std::string> expected, std::uint64_t seed,
            Results& results, SpanLog& spans)
        : trace_path_(std::move(trace_path)), policies_(std::move(policies)),
          expected_(std::move(expected)), seed_(seed),
          arrivals_(mix_seed(seed, kArrivalStream)), results_(results),
          spans_(spans) {
        try {
            for (int c = 0; c < kConnections; ++c)
                fds_[c] = connect_loopback(port, decoders_[c]);
        } catch (...) {
            close_all();
            throw;
        }
    }
    ~LoadGen() { close_all(); }
    LoadGen(const LoadGen&) = delete;
    LoadGen& operator=(const LoadGen&) = delete;

    // One block of `seconds`: open loop at rate_rps, or saturation when
    // rate_rps is 0. Returns after every reply arrived or the drain timed
    // out; requests answered with an Error frame (overloaded, deadline) or
    // not at all count as failed operations and as misses of the limit.
    void run_block(PhaseStats& stats, double rate_rps, double seconds) {
        const std::int64_t start = now_ns();
        const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
        const bool open_loop = rate_rps > 0.0;
        std::exponential_distribution<double> gap_s(open_loop ? rate_rps : 1.0);
        std::int64_t due = start;
        if (open_loop) {
            due += static_cast<std::int64_t>(gap_s(arrivals_) * 1e9);
        } else {
            for (int c = 0; c < kConnections; ++c) send(c, stats, start, false);
        }
        int next_conn = 0;
        pollfd fds[kConnections];
        for (;;) {
            std::int64_t now = now_ns();
            while (open_loop && due <= now && due < end) {
                send(next_conn, stats, due, true);
                next_conn = (next_conn + 1) % kConnections;
                due += static_cast<std::int64_t>(gap_s(arrivals_) * 1e9);
                now = now_ns();
            }
            const bool drained = awaiting_[0] == 0 && awaiting_[1] == 0;
            if (now >= end && drained) break;
            if (now >= end + kDrainTimeoutNs) break;
            std::int64_t wait = now < end ? end - now : 20'000'000;
            if (open_loop && due < end) wait = std::max<std::int64_t>(0, due - now);
            const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                              static_cast<long>(wait % 1'000'000'000)};
            for (int c = 0; c < kConnections; ++c) fds[c] = {fds_[c], POLLIN, 0};
            const int ready = ::ppoll(fds, kConnections, &ts, nullptr);
            if (ready < 0 && errno != EINTR)
                throw std::runtime_error("loadgen: poll failed");
            for (int c = 0; c < kConnections && ready > 0; ++c)
                if (fds[c].revents != 0) receive(c, stats, open_loop, end);
        }
        stats.block_s += seconds;
        tails.traffic_s += ms_between(start, now_ns()) / 1e3;
        for (const auto& entry : pending_) {
            ++entry.second.stats->failed;
            ++tails.failed;
            results_.refused(std::string(entry.second.stats->name) +
                             " request refused or unanswered");
        }
        pending_.clear();
        awaiting_[0] = awaiting_[1] = 0;
    }

    Tails tails;

private:
    struct Pending {
        PhaseStats* stats;
        std::int64_t due_ns;
        std::size_t policy;
        std::uint64_t trace_id; // span trace id, 0 when untraced
    };

    void close_all() {
        for (int& fd : fds_) {
            if (fd >= 0) ::close(fd);
            fd = -1;
        }
    }

    void send(int conn, PhaseStats& stats, std::int64_t due_ns,
              bool scheduled) {
        const std::uint64_t index = next_index_++;
        const std::size_t policy = index % policies_.size();
        serve::EvaluateMsg m =
            make_request(trace_path_, policies_[policy], mix_seed(seed_, index));
        m.trace_id = index + 1;
        const auto bytes = serve::encode_evaluate(m);
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ::ssize_t n = ::send(fds_[conn], bytes.data() + done,
                                       bytes.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("loadgen: send failed");
            done += static_cast<std::size_t>(n);
        }
        if (scheduled) tails.lag_ms.push_back(ms_between(due_ns, now_ns()));
        // Every other request is traced, so one run gives both medians
        // behind trace.overhead_pct.
        const std::uint64_t trace_id =
            spans_.enabled() && index % 2 == 0 ? spans_.next_trace_id() : 0;
        pending_[m.trace_id] = {&stats, due_ns, policy, trace_id};
        ++awaiting_[conn];
        ++stats.sent;
        ++tails.sent;
        results_.attempted();
    }

    void receive(int conn, PhaseStats& stats, bool open_loop,
                 std::int64_t block_end) {
        unsigned char buffer[64 * 1024];
        const ::ssize_t got =
            ::recv(fds_[conn], buffer, sizeof(buffer), MSG_DONTWAIT);
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) return;
        if (got <= 0) throw std::runtime_error("loadgen: server closed");
        decoders_[conn].feed(buffer, static_cast<std::size_t>(got));
        while (auto frame = decoders_[conn].next()) {
            const std::int64_t now = now_ns();
            --awaiting_[conn];
            if (frame->kind == serve::MsgKind::kError) {
                // Overloaded, deadline and other errors carry no request
                // id; the request stays pending and fails at the drain.
                continue;
            }
            if (frame->kind != serve::MsgKind::kResult) {
                results_.failed("unexpected frame kind from the server");
                continue;
            }
            const serve::ResultMsg r = serve::decode_result(*frame);
            const auto it = pending_.find(r.trace_id);
            if (it == pending_.end()) {
                results_.failed("reply with an unknown trace id");
                continue;
            }
            const Pending p = it->second;
            pending_.erase(it);
            PhaseStats& ps = *p.stats;
            if (r.degraded || r.text != expected_[p.policy]) {
                ++ps.failed;
                ++tails.failed;
                results_.failed(std::string(ps.name) +
                                " reply differs from EvalService::evaluate");
            } else {
                const double ms = ms_between(p.due_ns, now);
                ++ps.ok;
                ps.latency_ms.push_back(ms);
                (p.trace_id != 0 ? ps.traced_ms : ps.untraced_ms).push_back(ms);
                if (ms <= kLimitMs) ++ps.within_limit;
                if (now <= block_end) ++ps.ok_in_block;
            }
            ps.queue_ms.push_back(r.queue_ms);
            ps.cache_ms.push_back(r.cache_ms);
            ps.compute_ms.push_back(r.compute_ms);
            ps.serialize_ms.push_back(r.serialize_ms);
            tails.busy_ms += r.cache_ms + r.compute_ms + r.serialize_ms;
            if (p.trace_id != 0) record_spans(p, r, now);
            if (!open_loop && now < block_end) send(conn, stats, now, false);
        }
    }

    // The request span from its due time to its reply, with the server's
    // phases laid back to back before the reply (the Result tail carries
    // their durations, not their start times).
    void record_spans(const Pending& p, const serve::ResultMsg& r,
                      std::int64_t now) {
        const std::uint64_t root = spans_.reserve_span_id();
        spans_.record("request", p.trace_id, root, 0, p.due_ns, now);
        std::int64_t end = now;
        const std::pair<const char*, double> phases[] = {
            {"server.serialize", r.serialize_ms},
            {"service.compute", r.compute_ms},
            {"service.cache", r.cache_ms},
            {"server.queue", r.queue_ms}};
        for (const auto& [name, ms] : phases) {
            const std::int64_t start = end - static_cast<std::int64_t>(ms * 1e6);
            spans_.record(name, p.trace_id, spans_.reserve_span_id(), root,
                          start, end);
            end = start;
        }
    }

    std::string trace_path_;
    std::vector<std::string> policies_;
    std::vector<std::string> expected_;
    std::uint64_t seed_;
    std::mt19937_64 arrivals_;
    Results& results_;
    SpanLog& spans_;
    int fds_[kConnections] = {-1, -1};
    serve::FrameDecoder decoders_[kConnections];
    std::uint64_t awaiting_[kConnections] = {0, 0};
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t next_index_ = 0;
};

void print_phase(const PhaseStats& s, bool saturation) {
    const bool p99_ok = s.latency_ms.size() >= 1000; // >= 10 samples beyond
    char p99[32];
    if (p99_ok)
        std::snprintf(p99, sizeof(p99), "%.3f", quantile(s.latency_ms, 0.99));
    else
        std::snprintf(p99, sizeof(p99), "n/a");
    std::printf("  %-4s sent %6llu  ok %6llu  failed %3llu  p50 %.3f ms  "
                "p99 %s ms  within %.0f ms %.4f",
                s.name, static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.failed),
                median(s.latency_ms), p99, kLimitMs,
                s.sent == 0 ? 0.0
                            : static_cast<double>(s.within_limit) /
                                  static_cast<double>(s.sent));
    if (saturation)
        std::printf("  capacity %.1f rps",
                    static_cast<double>(s.ok_in_block) / s.block_s);
    std::printf("\n");
}

// Per-layer metrics of the server, the service and the generator: the
// phase's Result tails, busy time and generator lag over all traffic, a
// Stats reply and Ping round trips. Returns the median round trip in
// milliseconds.
double report_serve_layers(std::uint16_t port, const PhaseStats& phase,
                           const Tails& t, Results& results) {
    serve::Client client(port);
    std::vector<double> rtt_us;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const std::int64_t start = now_ns();
        if (client.ping(i + 1).token != i + 1)
            results.failed("ping echoed the wrong token");
        rtt_us.push_back(ms_between(start, now_ns()) * 1e3);
    }
    const serve::StatsReplyMsg stats = client.stats();
    results.metric("server.rtt_us", median(rtt_us), "us");
    results.metric("server.queue_ms.p50", median(phase.queue_ms), "ms");
    results.metric("server.queue_ms.p99", quantile(phase.queue_ms, 0.99), "ms");
    results.metric("server.busy_frac", t.busy_ms / 1e3 / t.traffic_s, "ratio");
    results.metric("server.rejected", static_cast<double>(stats.rejected),
                   "count");
    results.metric("server.shed", static_cast<double>(stats.shed), "count");
    results.metric("service.cache_ms.p50", median(phase.cache_ms), "ms");
    results.metric("service.compute_ms.p50", median(phase.compute_ms), "ms");
    results.metric("service.serialize_ms.p50", median(phase.serialize_ms),
                   "ms");
    results.metric("loadgen.lag_ms.p99", quantile(t.lag_ms, 0.99), "ms");
    results.metric("loadgen.sent", static_cast<double>(t.sent), "count");
    results.metric("loadgen.failed", static_cast<double>(t.failed), "count");
    return median(rtt_us) / 1e3;
}

} // namespace

std::vector<std::string> serve_policies() {
    std::vector<std::string> policies = {"uniform"};
    for (int d = 0; d < 12; ++d)
        policies.push_back("constant:" + std::to_string(d));
    return policies;
}

void run_serve_open(const Options& opts, Results& results, SpanLog& spans) {
    const std::vector<std::string> policies = serve_policies();
    const std::string& trace_path = opts.data;
    const std::vector<std::string> expected =
        direct_texts(trace_path, policies, opts.seed, results);
    std::uint64_t digest = fnv1a("");
    for (const std::string& text : expected) digest = fnv1a(text, digest);
    std::printf("digest: %016llx\n", static_cast<unsigned long long>(digest));

    SpanLog untraced(false);
    std::uint64_t cold_index = 0;
    std::vector<double> setup_ms;
    serve::EvalServer server;
    setup_ms.push_back(warm_up(server, trace_path, policies, expected,
                               opts.seed, cold_index, results, untraced));
    PhaseStats lo, hi, sat;
    lo.name = "lo";
    hi.name = "hi";
    sat.name = "sat";
    const double cycle_s = opts.seconds / kCycles;
    Usage traffic;
    Tails tails;
    {
        LoadGen gen(server.port(), trace_path, policies, expected, opts.seed,
                    results, spans);
        // getrusage brackets the traffic blocks only, not the set-ups.
        const auto block = [&](PhaseStats& phase, double rate_rps,
                               double share) {
            const Usage before = usage_now();
            gen.run_block(phase, rate_rps, share * cycle_s);
            add_usage_since(before, traffic);
        };
        for (int c = 0; c < kCycles; ++c) {
            block(lo, kLoRps, kLoShare);
            block(hi, kHiRps, kHiShare);
            block(sat, 0.0, kSatShare);
            for (int k = 0; k < kSetupsPerCycle; ++k)
                setup_ms.push_back(fresh_setup(trace_path, policies, expected,
                                               opts.seed, cold_index, results,
                                               spans));
        }
        tails = gen.tails;
    }

    std::printf("window: %.1f s in %d cycles of lo %.0f rps -> hi %.0f rps "
                "-> saturation (%d connections) -> %d fresh set-ups\n",
                opts.seconds, kCycles, kLoRps, kHiRps, kConnections,
                kSetupsPerCycle);
    print_phase(lo, false);
    print_phase(hi, false);
    print_phase(sat, true);
    std::printf("  setup_s    median %.4f s  q1 %.4f  q3 %.4f  (%zu set-ups)\n",
                median(setup_ms) / 1e3, quantile(setup_ms, 0.25) / 1e3,
                quantile(setup_ms, 0.75) / 1e3, setup_ms.size());
    std::printf("  loadgen lag p99 %.3f ms\n", quantile(tails.lag_ms, 0.99));

    if (!opts.trace) {
        results.metric("setup_s", median(setup_ms) / 1e3, "s");
        // One evaluation as a client meets it: the open-loop median at lo,
        // timed from the intended send time. The server is idle between
        // most requests there, so this is per-request cost (wire, admission,
        // dispatch, compute, render), not a function of capacity.
        results.metric("eval_s", median(lo.latency_ms) / 1e3, "s");
        results.metric("peak_rss_mb", usage_now().maxrss_mb, "MB");
        stop_server(server);
        return;
    }

    const double rtt_ms =
        report_serve_layers(server.port(), lo, tails, results);
    stop_server(server);
    const double triad = probe_host(results, spans);
    const store::ShardedStore store(store::find_shards(trace_path));
    LayerProbe probe;
    probe.store = &store;
    probe.policies = policies;
    probe.fit_rows = store.num_tuples();
    probe_layers(probe, triad, results, spans);
    const double protocol_ms =
        probe_protocol(trace_path, expected.front(), results, spans);
    report_process(traffic, tails.sent, results);
    const double explained = rtt_ms + protocol_ms + median(lo.queue_ms) +
                             median(lo.cache_ms) + median(lo.compute_ms) +
                             median(lo.serialize_ms);
    report_ledger(median(lo.latency_ms), explained, median(lo.traced_ms),
                  median(lo.untraced_ms), results);
}

void probe_serve_layers(const Options& opts, Results& results,
                        SpanLog& spans) {
    const std::vector<std::string> policies = serve_policies();
    const std::vector<std::string> expected =
        direct_texts(opts.data, policies, opts.seed, results);
    SpanLog untraced(false);
    std::uint64_t cold_index = 0;
    serve::EvalServer server;
    warm_up(server, opts.data, policies, expected, opts.seed, cold_index,
            results, untraced);
    // One open-loop block at about a third of this trace's capacity,
    // measured from a warm request's compute time.
    serve::Client client(server.port());
    const serve::ResultMsg warm = client.evaluate(make_request(
        opts.data, policies.front(), mix_seed(opts.seed, kColdSeedBase - 1)));
    results.attempted();
    if (warm.text != expected.front())
        results.failed("warm reply differs from EvalService::evaluate");
    const double rate = 0.3 / std::max(1e-4, warm.compute_ms / 1e3);
    constexpr double kRequests = 40.0;
    PhaseStats block;
    block.name = "probe";
    Tails tails;
    {
        LoadGen gen(server.port(), opts.data, policies, expected, opts.seed,
                    results, spans);
        gen.run_block(block, rate, kRequests / rate);
        tails = gen.tails;
    }
    std::printf("serve probe: %.1f rps open loop on this trace\n", rate);
    print_phase(block, false);
    report_serve_layers(server.port(), block, tails, results);
    stop_server(server);
}

} // namespace perfbench
