#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <variant>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault/fault.h"
#include "obs/obs.h"

namespace dre::serve {

namespace {

[[noreturn]] void fail_errno(const char* what) {
    throw std::runtime_error(std::string("serve: ") + what + ": " +
                             std::strerror(errno));
}

void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

// Requests that compute the same Result share one key: the Evaluate frame
// without the per-request trace id and deadline.
std::string job_key(EvaluateMsg m) {
    m.trace_id = 0;
    m.deadline_ms = 0;
    const std::vector<unsigned char> frame = encode_evaluate(m);
    return std::string(frame.begin(), frame.end());
}

constexpr std::uint64_t kNoDeadline =
    std::numeric_limits<std::uint64_t>::max();

// The obs::now_ns instant a budget of `ms` milliseconds from `now_ns` runs
// out. No budget (0) and one too long to represent both give kNoDeadline,
// which never runs out.
std::uint64_t deadline_after(std::uint64_t now_ns, std::uint64_t ms) {
    constexpr std::uint64_t kNsPerMs = 1000000;
    if (ms == 0 || ms > (kNoDeadline - now_ns) / kNsPerMs) return kNoDeadline;
    return now_ns + ms * kNsPerMs;
}

} // namespace

struct EvalServer::Session {
    explicit Session(int fd) : fd(fd) {}
    ~Session() {
        if (fd >= 0) ::close(fd);
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    const int fd;
    // Latched by whichever side sees the connection die; senders skip
    // closed sessions. The fd itself is closed only in the destructor
    // (i.e. after the io thread and every waiter list dropped their
    // shared_ptr), so a late writer can never hit a reused descriptor.
    std::atomic<bool> closed{false};
    FrameDecoder decoder;    // io thread only
    std::mutex write_mutex;  // serializes io-thread and dispatcher writes
    // Watchdog state: last time bytes arrived (io thread writes, io thread
    // reads) and how many admitted requests are awaiting replies
    // (admission increments, finish decrements). A session is
    // reapable only when idle AND nothing is outstanding — a client
    // silently waiting on a long evaluation is not idle.
    std::atomic<std::uint64_t> last_activity_ns{0};
    std::atomic<std::int64_t> outstanding{0};
};

// One session waiting on a job's computation, tagged with the trace id its
// own Evaluate frame carries — coalesced waiters share the compute but each
// Result echoes the waiter's id.
struct EvalServer::Waiter {
    std::shared_ptr<Session> session;
    std::uint64_t trace_id = 0;
};

struct EvalServer::Job {
    std::string key;
    EvaluateMsg request;
    std::vector<Waiter> waiters;
    std::uint64_t admitted_ns = 0;           // obs::now_ns at admission
    std::uint64_t deadline_ns = kNoDeadline; // obs::now_ns instant
    std::uint64_t trace_id = 0; // the admitting request's id
    bool degraded = false; // admitted under brownout: partial-coverage eval
};

// How an Evaluate request ends. Every waiter gets `reply`: an Error as is,
// a Result with the waiter's own trace id and this timing tail. An answer
// admission gives inline has no phases and zero times.
struct EvalServer::Outcome {
    std::variant<ResultMsg, ErrorMsg> reply;
    EvalService::EvalPhases phases;
    double queue_ms = 0.0; // admission -> dispatcher pickup
    double total_ms = 0.0; // admission -> finish
};

EvalServer::EvalServer(ServerOptions options)
    : options_(options),
      request_ms_(obs::registry().histogram("serve.request_ms")) {}

EvalServer::~EvalServer() {
    if (started_) stop_and_join();
}

std::uint16_t EvalServer::metrics_port() const noexcept {
    return metrics_http_ ? metrics_http_->port() : 0;
}

void EvalServer::start() {
    if (started_) throw std::runtime_error("serve: already started");
    try {
        if (options_.metrics_port >= 0) {
            metrics_http_ = std::make_unique<MetricsHttpServer>(
                static_cast<std::uint16_t>(options_.metrics_port));
            metrics_http_->start();
        }
        if (!options_.journal_path.empty()) {
            journal_ = std::make_unique<RequestJournal>(options_.journal_path);
            if (!journal_->ok())
                throw std::runtime_error("serve: cannot open --journal " +
                                         options_.journal_path);
        }
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) fail_errno("socket");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(options_.port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0)
            fail_errno("bind");
        if (::listen(listen_fd_, 64) != 0) fail_errno("listen");

        socklen_t len = sizeof(addr);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) != 0)
            fail_errno("getsockname");
        port_ = ntohs(addr.sin_port);

        if (::pipe(wake_pipe_) != 0) fail_errno("pipe");

        started_ = true;
        stop_.store(false);
        io_done_.store(false);
        io_thread_ = std::thread([this] { io_loop(); });
        dispatch_thread_ = std::thread([this] { dispatch_loop(); });
    } catch (...) {
        // A failed start releases what it acquired: no thread, listener
        // or descriptor outlives the exception.
        stop_and_join(); // joins an io thread that did start
        metrics_http_.reset();
        journal_.reset();
        close_fd(listen_fd_);
        for (int& fd : wake_pipe_) close_fd(fd);
        throw;
    }
}

void EvalServer::request_stop() {
    {
        // Published under the dispatcher's mutex, so the notify below can
        // never slip between its predicate check and its wait.
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stop_.store(true);
    }
    wake_io();
    queue_cv_.notify_all();
}

void EvalServer::wake_io() {
    if (wake_pipe_[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
    }
}

void EvalServer::stop_and_join() {
    if (!started_) return;
    if (metrics_http_) metrics_http_->stop_and_join();
    request_stop();
    if (io_thread_.joinable()) io_thread_.join();
    // The dispatcher drains the queue (replying to every waiter) before it
    // exits; sessions stay alive until after that join.
    if (dispatch_thread_.joinable()) dispatch_thread_.join();
    sessions_.clear();
    for (int& fd : wake_pipe_) close_fd(fd);
    started_ = false;
}

void EvalServer::send_frame(Session& session,
                            const std::vector<unsigned char>& bytes) {
    if (session.closed.load(std::memory_order_acquire)) return;

    // serve.write fault point, indexed by the frame-send sequence.
    // transient/permanent: the peer (or the path) died mid-write — drop
    // the connection; the client sees a truncated stream and its retry
    // layer reconnects. corruption: one byte flips in flight; the client's
    // decoder rejects the frame. slow: deliver every byte, but in tiny
    // chunked sends, exercising the client's reassembly.
    std::size_t slow_chunk = 0;
    const std::vector<unsigned char>* payload = &bytes;
    std::vector<unsigned char> corrupted;
    if (const auto fk = DRE_FAULT_CHECK(
            "serve.write", write_seq_.fetch_add(1, std::memory_order_relaxed),
            0)) {
        switch (*fk) {
            case fault::FaultKind::kTransient:
            case fault::FaultKind::kPermanent:
                session.closed.store(true, std::memory_order_release);
                // The socket itself is healthy, so nothing will wake the
                // io thread's poll: poke it so the session is reaped (and
                // its fd closed — the peer's EOF) promptly.
                wake_io();
                return;
            case fault::FaultKind::kCorruption:
                corrupted = bytes;
                if (!corrupted.empty()) corrupted[corrupted.size() / 2] ^= 0x40;
                payload = &corrupted;
                break;
            case fault::FaultKind::kSlow:
                slow_chunk = 7;
                DRE_COUNTER_INC("serve.write_partial");
                break;
        }
    }

    std::lock_guard<std::mutex> lock(session.write_mutex);
    std::size_t done = 0;
    while (done < payload->size()) {
        const std::size_t want =
            slow_chunk > 0 ? std::min(slow_chunk, payload->size() - done)
                           : payload->size() - done;
        const ::ssize_t sent =
            ::send(session.fd, payload->data() + done, want, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            session.closed.store(true, std::memory_order_release);
            wake_io();
            return;
        }
        done += static_cast<std::size_t>(sent);
    }
    DRE_COUNTER_ADD("serve.bytes_sent", payload->size());
}

void EvalServer::finish(const EvaluateMsg& request,
                        const std::vector<Waiter>& waiters,
                        const Outcome& outcome) {
    const ResultMsg* result = std::get_if<ResultMsg>(&outcome.reply);
    const ErrorMsg* error = std::get_if<ErrorMsg>(&outcome.reply);
    if (error != nullptr && error->code == ErrorCode::kDeadlineExceeded) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        DRE_COUNTER_INC("serve.deadline_exceeded");
    }
    // Every line before the first reply, so by the time any client holds
    // its frame the matching journal line is already on disk — the
    // loadgen/journal cross-check relies on that ordering.
    if (journal_) {
        for (std::size_t i = 0; i < waiters.size(); ++i) {
            JournalRecord rec;
            rec.trace_id = waiters[i].trace_id;
            rec.trace = request.trace;
            rec.policy = request.policy;
            rec.model = request.model;
            rec.seed = request.seed;
            rec.ci_replicates = request.ci_replicates;
            rec.total_ms = outcome.total_ms;
            rec.queue_ms = outcome.queue_ms;
            rec.cache_ms = outcome.phases.cache_ms;
            rec.compute_ms = outcome.phases.compute_ms;
            rec.serialize_ms = outcome.phases.serialize_ms;
            rec.trace_hit = outcome.phases.trace_hit;
            rec.policy_hit = outcome.phases.policy_hit;
            rec.evaluator_hit = outcome.phases.evaluator_hit;
            rec.coalesced = i > 0;
            rec.waiters = waiters.size();
            if (result != nullptr) {
                rec.degraded = result->degraded;
            } else {
                rec.error_code = to_string(error->code);
                rec.error = error->message;
            }
            journal_->log(rec);
        }
    }
    for (const Waiter& w : waiters) {
        if (result != nullptr) {
            // Coalesced waiters share the text and dr bytes; the telemetry
            // tail is each waiter's own.
            ResultMsg reply = *result;
            reply.trace_id = w.trace_id;
            reply.queue_ms = outcome.queue_ms;
            reply.cache_ms = outcome.phases.cache_ms;
            reply.compute_ms = outcome.phases.compute_ms;
            reply.serialize_ms = outcome.phases.serialize_ms;
            send_frame(*w.session, encode_result(reply));
        } else {
            send_frame(*w.session, encode_error(*error));
        }
        w.session->outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
}

void EvalServer::admit(const std::shared_ptr<Session>& session,
                       EvaluateMsg request) {
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    DRE_COUNTER_INC("serve.requests");
    // Every admitted request gets a trace id: the client's if it sent one,
    // a server-generated one otherwise, so the Result echo and the journal
    // always correlate.
    const Waiter waiter{session, request.trace_id != 0 ? request.trace_id
                                                       : obs::next_trace_id()};
    session->outstanding.fetch_add(1, std::memory_order_relaxed);
    std::string key = job_key(request);
    const std::uint64_t now_ns = obs::now_ns();
    const std::uint64_t deadline = deadline_after(now_ns, request.deadline_ms);

    // Every answer admission gives itself is cheap (no compute), so it goes
    // out from the io thread.
    Outcome answer;
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        const auto it = inflight_.find(key);
        // Deadline shedding: if the EWMA of job service time says the
        // requests already ahead of this one will outlive its budget,
        // reject now rather than let it expire in line. Conservative by
        // design: a zero EWMA (no finished job yet) never sheds.
        const std::uint64_t ahead_ns =
            (static_cast<std::uint64_t>(queue_.size()) + 1) *
            avg_job_us_.load(std::memory_order_relaxed) * 1000;
        const bool brownout = options_.brownout_watermark > 0 &&
                              queue_.size() >= options_.brownout_watermark;
        EvalCache::ResultPtr cached;
        if (it != inflight_.end()) {
            // Identical request queued or computing: share its one
            // computation. Attaching under the queue mutex pairs with the
            // dispatcher claiming waiters under the same mutex, so the
            // reply cannot be missed.
            it->second->waiters.push_back(waiter);
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            DRE_COUNTER_INC("serve.requests_coalesced");
            return;
        } else if (deadline != kNoDeadline && ahead_ns > deadline - now_ns) {
            shed_.fetch_add(1, std::memory_order_relaxed);
            DRE_COUNTER_INC("serve.shed");
            answer.reply = ErrorMsg{
                ErrorCode::kDeadlineExceeded,
                "deadline " + std::to_string(request.deadline_ms) +
                    "ms unmeetable: queue backlog ahead of this request "
                    "exceeds it"};
        } else if (brownout && (cached = service_.cached_result(key))) {
            // A finished full-fidelity result for this exact key costs
            // nothing to serve and is exact.
            brownout_.fetch_add(1, std::memory_order_relaxed);
            DRE_COUNTER_INC("serve.brownout");
            DRE_COUNTER_INC("serve.brownout_cache");
            answer.reply = ResultMsg{
                .text = cached->text, .dr = cached->dr, .cache_hit = true};
        } else if (queue_.size() >= options_.max_queue) {
            // Backpressure: tell the client at once instead of buffering
            // without bound.
            rejected_.fetch_add(1, std::memory_order_relaxed);
            DRE_COUNTER_INC("serve.requests_rejected");
            answer.reply = ErrorMsg{ErrorCode::kOverloaded,
                                    "queue full (" +
                                        std::to_string(options_.max_queue) +
                                        " pending); retry later"};
        } else {
            auto job = std::make_shared<Job>();
            job->key = std::move(key);
            job->request = std::move(request);
            job->waiters.push_back(waiter);
            job->admitted_ns = now_ns;
            job->deadline_ns = deadline;
            job->trace_id = waiter.trace_id;
            job->degraded = brownout;
            if (brownout) {
                brownout_.fetch_add(1, std::memory_order_relaxed);
                DRE_COUNTER_INC("serve.brownout");
            }
            inflight_.emplace(job->key, job);
            queue_.push_back(std::move(job));
            DRE_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(queue_.size()));
            queue_cv_.notify_one();
            return;
        }
    }
    finish(request, {waiter}, answer);
}

void EvalServer::handle_frame(const std::shared_ptr<Session>& session,
                              const Frame& f) {
    switch (f.kind) {
        case MsgKind::kHello: {
            (void)decode_hello(f); // any version; we answer with ours
            send_frame(*session, encode_hello({kProtocolVersion}));
            return;
        }
        case MsgKind::kPing: {
            send_frame(*session, encode_ping(decode_ping(f)));
            return;
        }
        case MsgKind::kStats: {
            if (!is_stats_request(f))
                throw ProtocolError("serve: client sent a Stats reply");
            send_frame(*session, encode_stats_reply(stats_snapshot()));
            return;
        }
        case MsgKind::kEvaluate: {
            admit(session, decode_evaluate(f));
            return;
        }
        case MsgKind::kResult:
        case MsgKind::kError:
            throw ProtocolError("serve: client sent a server-only frame");
    }
    throw ProtocolError("serve: unhandled message kind");
}

void EvalServer::io_loop() {
    std::vector<pollfd> fds;
    unsigned char buffer[64 * 1024];
    // Without a watchdog the poll blocks until traffic; with one it wakes
    // at a fraction of the timeout so reaping is never more than ~a quarter
    // period late.
    const int poll_timeout_ms =
        options_.idle_timeout_ms > 0
            ? static_cast<int>(std::clamp<std::uint64_t>(
                  options_.idle_timeout_ms / 4, 10, 1000))
            : -1;
    while (!stop_.load(std::memory_order_acquire)) {
        fds.clear();
        fds.push_back({listen_fd_, POLLIN, 0});
        fds.push_back({wake_pipe_[0], POLLIN, 0});
        for (const auto& session : sessions_)
            fds.push_back({session->fd, POLLIN, 0});

        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   poll_timeout_ms) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (stop_.load(std::memory_order_acquire)) break;

        if ((fds[0].revents & POLLIN) != 0) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd >= 0) {
                // serve.accept fault point: the connection dies before the
                // handshake — exactly what a listen-queue drop or an
                // accept-time RST looks like to the client.
                if (const auto fk = DRE_FAULT_CHECK(
                        "serve.accept",
                        accept_seq_.fetch_add(1, std::memory_order_relaxed),
                        0);
                    fk && *fk != fault::FaultKind::kSlow) {
                    ::close(fd);
                    DRE_COUNTER_INC("serve.connections_dropped");
                } else {
                    const int one = 1;
                    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                                 sizeof(one));
                    auto session = std::make_shared<Session>(fd);
                    session->last_activity_ns.store(
                        obs::now_ns(), std::memory_order_relaxed);
                    sessions_.push_back(std::move(session));
                    DRE_COUNTER_INC("serve.connections_accepted");
                }
            }
        }

        for (std::size_t i = 2; i < fds.size(); ++i) {
            const std::shared_ptr<Session>& session = sessions_[i - 2];
            if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
            const ::ssize_t got =
                ::recv(session->fd, buffer, sizeof(buffer), 0);
            if (got <= 0) {
                if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
                session->closed.store(true, std::memory_order_release);
                continue;
            }
            session->last_activity_ns.store(obs::now_ns(),
                                            std::memory_order_relaxed);
            DRE_COUNTER_ADD("serve.bytes_received",
                            static_cast<std::uint64_t>(got));
            // serve.read fault point, indexed by the recv sequence.
            // transient/permanent: the peer died mid-stream — drop the
            // session (undelivered bytes and all). corruption: a byte
            // flips in flight; the decoder rejects the frame and the
            // session closes via the ProtocolError arm below. slow: the
            // bytes arrive one at a time, exercising frame reassembly at
            // every boundary.
            bool slow_feed = false;
            if (const auto fk = DRE_FAULT_CHECK(
                    "serve.read",
                    read_seq_.fetch_add(1, std::memory_order_relaxed), 0)) {
                switch (*fk) {
                    case fault::FaultKind::kTransient:
                    case fault::FaultKind::kPermanent:
                        session->closed.store(true,
                                              std::memory_order_release);
                        continue;
                    case fault::FaultKind::kCorruption:
                        buffer[0] ^= 0x40;
                        break;
                    case fault::FaultKind::kSlow:
                        slow_feed = true;
                        break;
                }
            }
            try {
                if (slow_feed) {
                    for (::ssize_t b = 0; b < got; ++b) {
                        session->decoder.feed(buffer + b, 1);
                        while (auto frame = session->decoder.next())
                            handle_frame(session, *frame);
                    }
                } else {
                    session->decoder.feed(buffer,
                                          static_cast<std::size_t>(got));
                    while (auto frame = session->decoder.next())
                        handle_frame(session, *frame);
                }
            } catch (const ProtocolError& e) {
                send_frame(*session,
                           encode_error({ErrorCode::kBadFrame, e.what()}));
                session->closed.store(true, std::memory_order_release);
            }
        }

        // Watchdog: reap sessions with no traffic and nothing outstanding
        // for idle_timeout_ms — half-open peers, stalled writers, and
        // clients wedged mid-frame (e.g. by a corrupted length prefix)
        // stop pinning a poll slot and an fd forever.
        if (options_.idle_timeout_ms > 0) {
            const std::uint64_t now_ns = obs::now_ns();
            const std::uint64_t idle_ns = options_.idle_timeout_ms * 1000000ull;
            for (const auto& session : sessions_) {
                if (session->closed.load(std::memory_order_acquire)) continue;
                if (session->outstanding.load(std::memory_order_relaxed) > 0)
                    continue;
                const std::uint64_t last =
                    session->last_activity_ns.load(std::memory_order_relaxed);
                if (now_ns > last && now_ns - last >= idle_ns) {
                    session->closed.store(true, std::memory_order_release);
                    sessions_reaped_.fetch_add(1, std::memory_order_relaxed);
                    DRE_COUNTER_INC("serve.sessions_reaped");
                }
            }
        }

        // Drop closed sessions from the poll set; the shared_ptr (and so
        // the fd) lives on in any waiter list still holding it.
        std::erase_if(sessions_, [](const std::shared_ptr<Session>& s) {
            return s->closed.load(std::memory_order_acquire);
        });
    }
    close_fd(listen_fd_);
    {
        std::lock_guard<std::mutex> lock(queue_mutex_); // see request_stop
        io_done_.store(true, std::memory_order_release);
    }
    queue_cv_.notify_all();
}

void EvalServer::dispatch_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [&] {
                return !queue_.empty() ||
                       (stop_.load(std::memory_order_acquire) &&
                        io_done_.load(std::memory_order_acquire));
            });
            if (queue_.empty()) break; // stop requested, io quiet, drained
            job = queue_.front();
            queue_.pop_front();
            DRE_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(queue_.size()));
        }

        const std::uint64_t dequeue_ns = obs::now_ns();
        Outcome outcome;
        outcome.queue_ms =
            static_cast<double>(dequeue_ns - job->admitted_ns) / 1e6;
        DRE_HIST_RECORD("serve.queue_ms", outcome.queue_ms);

        // Compute outside every lock: one job at a time, internally
        // parallel on the dre::par pool. The trace context installed here
        // propagates into the pool workers via Batch, so every span a
        // worker opens carries this request's trace id.
        {
            obs::ScopedTraceContext trace_scope(
                obs::TraceContext{job->trace_id});
            DRE_SPAN("serve.request");
            if (obs::trace_enabled())
                obs::record_trace_event("serve.queue_wait", job->admitted_ns,
                                        dequeue_ns);
            // Queue-phase deadline: the budget may already be gone by the
            // time the dispatcher reaches this job.
            if (dequeue_ns >= job->deadline_ns) {
                outcome.reply = ErrorMsg{
                    ErrorCode::kDeadlineExceeded,
                    "deadline exceeded in queue phase (waited " +
                        std::to_string(outcome.queue_ms) + "ms)"};
            } else {
                DeadlineFn deadline_fn;
                if (job->deadline_ns != kNoDeadline)
                    deadline_fn = [deadline = job->deadline_ns] {
                        return obs::now_ns() >= deadline;
                    };
                try {
                    // serve.dispatch fault point: the job blows up at
                    // pickup — a stand-in for dispatcher-side resource
                    // failures that none of the service's own error arms
                    // model.
                    DRE_FAULT_INJECT(
                        "serve.dispatch",
                        dispatch_seq_.fetch_add(1, std::memory_order_relaxed),
                        0);
                    outcome.reply =
                        job->degraded
                            ? service_.evaluate_degraded(
                                  job->request, options_.brownout_coverage,
                                  &outcome.phases, deadline_fn)
                            : service_.evaluate(job->request, &outcome.phases,
                                                deadline_fn);
                } catch (const DeadlineExceeded& e) {
                    outcome.reply =
                        ErrorMsg{ErrorCode::kDeadlineExceeded, e.what()};
                } catch (const fault::FaultError& e) {
                    // Before the catch-all runtime_error arm: an injected
                    // dispatcher fault is an internal failure, not a
                    // missing trace.
                    outcome.reply = ErrorMsg{ErrorCode::kInternal, e.what()};
                } catch (const std::invalid_argument& e) {
                    outcome.reply = ErrorMsg{ErrorCode::kBadRequest, e.what()};
                } catch (const std::runtime_error& e) {
                    outcome.reply = ErrorMsg{ErrorCode::kNotFound, e.what()};
                } catch (const std::exception& e) {
                    outcome.reply = ErrorMsg{ErrorCode::kInternal, e.what()};
                } catch (...) {
                    // Even an unclassifiable failure ends in finish with a
                    // journal line and a reply, never a silent drop.
                    outcome.reply =
                        ErrorMsg{ErrorCode::kInternal, "unknown error"};
                }
            }
        }

        // Feed the admission-shedding estimate and remember finished
        // full-fidelity results for brownout cache-only serving.
        if (const auto* result = std::get_if<ResultMsg>(&outcome.reply)) {
            const std::uint64_t job_us = (obs::now_ns() - dequeue_ns) / 1000;
            const std::uint64_t prev =
                avg_job_us_.load(std::memory_order_relaxed);
            avg_job_us_.store(prev == 0 ? job_us : (3 * prev + job_us) / 4,
                              std::memory_order_relaxed);
            if (!job->degraded)
                service_.remember_result(job->key, result->text, result->dr);
        }

        // Claim the waiter list and retire the in-flight key under the
        // admission mutex: after this, an identical request starts a fresh
        // job instead of attaching to a finished one.
        std::vector<Waiter> waiters;
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            waiters = std::move(job->waiters);
            inflight_.erase(job->key);
        }
        outcome.total_ms =
            static_cast<double>(obs::now_ns() - job->admitted_ns) / 1e6;
        finish(job->request, waiters, outcome);
        request_ms_.record(outcome.total_ms);
    }
}

StatsReplyMsg EvalServer::stats_snapshot() {
    StatsReplyMsg m;
    m.requests_total = requests_total_.load(std::memory_order_relaxed);
    m.rejected = rejected_.load(std::memory_order_relaxed);
    m.coalesced = coalesced_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        m.queue_depth = queue_.size();
    }
    const CacheStats cache = service_.cache_stats();
    m.evaluator_hits = cache.evaluator_hits;
    m.evaluator_misses = cache.evaluator_misses;
    m.policy_hits = cache.policy_hits;
    m.policy_misses = cache.policy_misses;
    m.trace_hits = cache.trace_hits;
    m.trace_misses = cache.trace_misses;
    m.p50_ms = request_ms_.p50();
    m.p90_ms = request_ms_.p90();
    m.p99_ms = request_ms_.p99();
    m.journal_lines = journal_ ? journal_->lines_written() : 0;
    m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
    m.shed = shed_.load(std::memory_order_relaxed);
    m.brownout = brownout_.load(std::memory_order_relaxed);
    m.sessions_reaped = sessions_reaped_.load(std::memory_order_relaxed);
    const obs::HistogramSnapshot queue_hist =
        obs::registry().histogram("serve.queue_ms").snapshot();
    const obs::HistogramSnapshot compute_hist =
        obs::registry().histogram("serve.compute_ms").snapshot();
    m.queue_p50_ms = queue_hist.p50();
    m.queue_p99_ms = queue_hist.p99();
    m.compute_p50_ms = compute_hist.p50();
    m.compute_p99_ms = compute_hist.p99();
    return m;
}

} // namespace dre::serve
