// RequestJournal — structured JSONL slow-request/error log for dre_serve
// (DESIGN.md §13).
//
// One line per logged request, appended and flushed atomically under a
// mutex so concurrent dispatcher/io writers never interleave bytes. A
// record is written when the request errored OR its total latency met the
// threshold (threshold 0 journals everything). Each line is a single JSON
// object:
//
//   {"ts_ms": <unix wall ms>, "trace_id": "0x...", "trace": "...",
//    "policy": "...", "model": "...", "seed": N, "ci": N,
//    "outcome": "ok"|"error", "error_code": "...", "error": "...",
//    "total_ms": x, "queue_ms": x, "cache_ms": x, "compute_ms": x,
//    "serialize_ms": x, "trace_hit": b, "policy_hit": b,
//    "evaluator_hit": b, "coalesced": b, "degraded": b, "waiters": N}
//
// Exactly-once contract: the server writes one terminal line per admitted
// request — completed, errored, shed, browned out, deadline-expired, or
// drained at shutdown — and writes it *before* the reply frame, so a
// client holding a response can always find the matching line on disk.
// (A threshold > 0 suppresses fast-success lines by design; accounting
// runs use threshold 0.)
//
// trace_id is hex text, not a JSON number: u64 ids do not survive a
// consumer's double conversion. Coalesced requests get one line per
// waiter (same timings, their own trace_id, "coalesced": true for the
// riders) so every request id can be found in the journal.
#ifndef DRE_SERVE_JOURNAL_H
#define DRE_SERVE_JOURNAL_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace dre::serve {

struct JournalRecord {
    std::uint64_t trace_id = 0;
    std::string trace, policy, model;
    std::uint64_t seed = 0;
    std::uint32_t ci_replicates = 0;
    double total_ms = 0.0;
    double queue_ms = 0.0;
    double cache_ms = 0.0;
    double compute_ms = 0.0;
    double serialize_ms = 0.0;
    bool trace_hit = false;
    bool policy_hit = false;
    bool evaluator_hit = false;
    bool coalesced = false;      // rode on another request's computation
    bool degraded = false;       // brownout: partial-coverage result
    std::uint64_t waiters = 1;   // sessions served by that computation
    std::string error_code;      // empty = success
    std::string error;
};

class RequestJournal {
public:
    // Opens `path` for append. ok() reports whether the open succeeded;
    // a journal that failed to open drops every record (EvalServer::start
    // refuses to start with one).
    RequestJournal(const std::string& path, double threshold_ms);
    ~RequestJournal();
    RequestJournal(const RequestJournal&) = delete;
    RequestJournal& operator=(const RequestJournal&) = delete;

    bool ok() const noexcept { return file_ != nullptr; }
    double threshold_ms() const noexcept { return threshold_ms_; }

    // Appends one line if the record qualifies (error, or total_ms >=
    // threshold). Thread-safe; flushes per line so a crash loses at most
    // the line being written.
    void log(const JournalRecord& record);

    std::uint64_t lines_written() const noexcept {
        return lines_.load(std::memory_order_relaxed);
    }

private:
    std::FILE* file_ = nullptr;
    double threshold_ms_;
    std::mutex mutex_;
    std::atomic<std::uint64_t> lines_{0};
};

// The JSON object for one record (exposed for tests; log() writes exactly
// this plus a newline).
std::string journal_line_json(const JournalRecord& record,
                              std::uint64_t ts_ms);

} // namespace dre::serve

#endif // DRE_SERVE_JOURNAL_H
