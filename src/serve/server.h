// EvalServer — the long-running TCP evaluation service (DESIGN.md §12).
//
// Thread model, chosen for determinism first:
//
//   io thread         accept loop + poll over every session fd. Decodes
//                     frames and answers the cheap messages (Hello, Ping,
//                     Stats) inline; Evaluate requests go through the
//                     admission layer below. Never computes.
//   dispatcher thread pops admitted jobs strictly FIFO and runs each one
//                     to completion on the shared dre::par pool (the
//                     evaluation parallelizes internally via parallel_for).
//                     One job at a time, so concurrent clients can never
//                     interleave two evaluations' arithmetic — responses
//                     are byte-identical at any client concurrency by
//                     construction, not by locking discipline.
//
// Admission decides each Evaluate request in one if/else chain, under one
// queue mutex:
//   * coalesce — an identical request (same key, the Evaluate encoding
//     without trace_id and deadline_ms) is queued or computing: the new
//     session waits on that job and shares its single computation;
//   * shed — the deadline is unmeetable (see Deadlines below);
//   * brownout cache — see Brownout below;
//   * overloaded — the bounded queue is full: an immediate
//     Error{kOverloaded} backpressure reply;
//   * otherwise a new job enters the FIFO queue.
// Every request ends in finish(). Admission hands it the answer it gives
// inline; the dispatcher hands it each job's outcome with the waiter list
// it claimed, under the same mutex, as it removed the job from the
// in-flight map, so a request that coalesces can never miss its response.
// finish() writes a journal line for every waiter, all before the first
// reply, then sends each waiter its frame.
//
// Sessions are shared_ptr-owned; a session's fd is closed only in its
// destructor, after the io thread has dropped it AND every job holding it
// as a waiter has replied — no fd-reuse races between the poll loop and a
// worker write. Graceful shutdown (request_stop / stop_and_join) stops
// accepting, drains every queued job, replies to its waiters, and only
// then tears sessions down.
//
// Resilience layer (DESIGN.md §15):
//   * Deadlines — an Evaluate frame may carry deadline_ms; admission sheds
//     the request immediately when the queue's EWMA service time says the
//     budget is unmeetable, the dispatcher answers kDeadlineExceeded when
//     the budget expires in the queue, and the service checks it at the
//     cache/compute/serialize phase boundaries. A budget too long to
//     represent in obs::now_ns nanoseconds never runs out.
//   * Brownout — with brownout_watermark > 0, once the queue reaches the
//     watermark new unique requests stop being first-class: a repeat of a
//     finished request is answered inline from the response cache (exact
//     bytes, no compute, still on the io thread because it is cheap), and
//     anything else is queued as a *degraded* job evaluated over a
//     coverage-rescaled prefix sub-trace with honestly widened CIs and an
//     explicit degraded flag. The queue overflowing max_queue still means
//     kOverloaded.
//   * Watchdog — with idle_timeout_ms > 0 the io thread polls with a
//     finite timeout and reaps sessions that have no outstanding request
//     and no bytes for the timeout (half-open peers, stalled writers,
//     clients wedged mid-frame by a corrupted length prefix).
//   * Fault points serve.accept / serve.read / serve.write /
//     serve.dispatch let seeded chaos schedules exercise all of the above;
//     kind=slow degrades io to byte-at-a-time reads / tiny chunked writes
//     without changing any delivered byte.
//   * Exactly-once journal — every admitted request produces one terminal
//     journal line (ok, error, degraded, shed, deadline-exceeded, or
//     drained at shutdown), written by finish() before its reply frame.
#ifndef DRE_SERVE_SERVER_H
#define DRE_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/journal.h"
#include "serve/metrics_http.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace dre::serve {

struct ServerOptions {
    std::uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
    std::size_t max_queue = 64; // pending unique Evaluate jobs (0 = reject
                                // everything that cannot coalesce)

    // Resilience knobs (DESIGN.md §15). All off by default.
    std::size_t brownout_watermark = 0; // queue depth at/above which new
                                        // unique requests brown out
                                        // (0 = brownout off)
    double brownout_coverage = 0.25; // target fraction of the trace a
                                     // degraded evaluation covers
    std::uint64_t idle_timeout_ms = 0; // io watchdog: reap sessions idle
                                       // this long with nothing in flight
                                       // (0 = watchdog off)

    // Telemetry pipeline (DESIGN.md §13). All off by default; none of it
    // touches the evaluation results.
    int metrics_port = -1; // OpenMetrics HTTP listener: -1 = off, 0 =
                           // kernel-assigned, else the port
    std::string journal_path; // JSONL request journal ("" = off)
};

class EvalServer {
public:
    explicit EvalServer(ServerOptions options = {});
    ~EvalServer(); // stop_and_join() if still running
    EvalServer(const EvalServer&) = delete;
    EvalServer& operator=(const EvalServer&) = delete;

    // Binds 127.0.0.1:<port>, then spawns the io and dispatcher threads.
    // Throws std::runtime_error on any socket failure.
    void start();
    // The bound port (after start()); useful with options.port = 0.
    std::uint16_t port() const noexcept { return port_; }

    // Ask the server to stop: no new connections or admissions, queued
    // jobs still drain. Safe from any thread; returns immediately.
    void request_stop();
    // request_stop() + join both threads + close every session. After
    // this, every admitted request has been answered.
    void stop_and_join();

    EvalService& service() noexcept { return service_; }
    StatsReplyMsg stats_snapshot();

    // The metrics listener's bound port (0 unless options.metrics_port was
    // >= 0 and start() succeeded).
    std::uint16_t metrics_port() const noexcept;

private:
    struct Session;
    struct Job;
    struct Waiter;
    struct Outcome;

    void io_loop();
    void dispatch_loop();
    void handle_frame(const std::shared_ptr<Session>& session, const Frame& f);
    void admit(const std::shared_ptr<Session>& session, EvaluateMsg request);
    void send_frame(Session& session, const std::vector<unsigned char>& bytes);
    // Poke the io thread's wake pipe (safe from any thread): used on stop
    // and whenever a session is marked closed off the io thread, so the
    // poll loop reaps it without waiting for socket traffic.
    void wake_io();
    // Ends an Evaluate request: one journal line per waiter, all before
    // the first reply, then each waiter's frame.
    void finish(const EvaluateMsg& request, const std::vector<Waiter>& waiters,
                const Outcome& outcome);

    ServerOptions options_;
    EvalService service_;
    std::unique_ptr<RequestJournal> journal_;
    std::unique_ptr<MetricsHttpServer> metrics_http_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::uint16_t port_ = 0;
    bool started_ = false;
    std::atomic<bool> stop_{false};
    // Set by the io thread as its last act. The dispatcher exits only once
    // stop is requested, the io thread can admit nothing more, AND the
    // queue is drained — otherwise a job admitted in the io thread's final
    // iteration could be dropped unanswered.
    std::atomic<bool> io_done_{false};
    std::thread io_thread_;
    std::thread dispatch_thread_;

    // Admission state (queue + in-flight coalescing map), one mutex.
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    std::map<std::string, std::shared_ptr<Job>> inflight_;

    std::vector<std::shared_ptr<Session>> sessions_; // io thread only

    std::atomic<std::uint64_t> requests_total_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> deadline_exceeded_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> brownout_{0};
    std::atomic<std::uint64_t> sessions_reaped_{0};
    // EWMA of dispatcher job service time, microseconds; 0 until the first
    // job finishes. Written by the dispatcher, read by admission shedding.
    std::atomic<std::uint64_t> avg_job_us_{0};
    // Fault-point sequences. accept/read run on the io thread only but the
    // write sequence is shared between io-thread inline replies and
    // dispatcher result sends, so all stay atomic for simplicity.
    std::atomic<std::uint64_t> accept_seq_{0};
    std::atomic<std::uint64_t> read_seq_{0};
    std::atomic<std::uint64_t> write_seq_{0};
    std::atomic<std::uint64_t> dispatch_seq_{0};
    obs::Histogram& request_ms_;
};

} // namespace dre::serve

#endif // DRE_SERVE_SERVER_H
