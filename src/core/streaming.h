// Out-of-core streaming evaluation (the dre::store integration point),
// hardened against injected and real faults.
//
// `evaluate_streaming` runs the full Evaluator estimator suite (DM, IPS,
// SNIPS, DR, SWITCH-DR, overlap diagnostics, DR bootstrap CI) over a
// TupleSource without ever materializing the trace: tuples are pulled one
// reduction chunk (par::kReduceChunk) at a time, each chunk fills its own
// PredictionMatrix block, and the evaluation engine (core/engine.h) folds
// the chunk and merges it *in chunk order* into the running totals.
//
// Determinism contract (DESIGN.md §9): Evaluator drives the same engine
// over the same chunk geometry — the global tuple index, independent of
// thread count, row-group size and shard split — so point estimates AND
// bootstrap CIs equal Evaluator::evaluate on the same tuples by
// construction, for any DRE_THREADS and any shard layout. Memory is
// O(chunks-in-flight × chunk), not O(trace).
//
// Failure handling (DESIGN.md §10): `evaluate_streaming_guarded` adds
// three failure modes on top of the same arithmetic.
//
//   kStrict      today's behavior: fail-stop. The first I/O error,
//                corruption, or injected fault (after the source's retry
//                policy runs) aborts the run with an exception, and a
//                structurally invalid tuple aborts it too (the per-chunk
//                estimator validates its input).
//   kQuarantine  damaged row groups (via TupleSource::read_tolerant) and
//                structurally invalid tuples (trace/validate.h) are
//                *skipped* and recorded in a QuarantineReport. Estimator
//                denominators are the surviving-tuple counts — MeanState
//                means, the SNIPS ratio, overlap diagnostics, and the
//                bootstrap all run over exactly the evaluated tuples, so
//                the estimates are exact for the surviving sub-trace, not
//                silently deflated by the missing rows.
//   kDegrade     kQuarantine, plus the result is coverage-qualified: the
//                DR bootstrap CI half-widths are divided by the coverage
//                fraction (evaluated/total), a deterministic widening that
//                makes a low-coverage run advertise its own uncertainty.
//
// The quarantine machinery is itself deterministic: faults fire by logical
// index (dre::fault), chunk-level records merge in chunk order, and the
// QuarantineReport (including its canonical to_text() rendering) is
// byte-identical across thread counts for a given fault schedule.
//
// Checkpoint/resume: with StreamingOptions::checkpoint_path set, the run
// writes its complete reduction state (chunk cursor, MeanStates, overlap
// folds, bootstrap replicate sums + base-generator words, quarantine
// report) to an atomic tmp+rename file after every wave. A killed run
// restarted with resume=true continues from the last completed wave and
// produces bit-identical results — the state is restored verbatim and the
// chunk geometry is absolute. The checkpoint validates a config hash
// (tuple count, chunk size, estimator options, CI settings, failure mode,
// bootstrap seed) and refuses to resume a mismatched run; the caller is
// responsible for passing the same source/model/policy.
#ifndef DRE_CORE_STREAMING_H
#define DRE_CORE_STREAMING_H

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::core {

// One contiguous run of tuples a tolerant read could not produce.
// `reason` is a stable reason-code literal (store::StoreError::reason_code
// or trace/validate.h reason_code); `shard` is -1 when unattributable.
struct TupleReadFailure {
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
    const char* reason = "unknown";
    std::string detail;
    std::int64_t shard = -1;
};

// Random-access tuple supplier. Implementations must be safe for
// concurrent read() calls from pool threads (the store-backed source and
// the in-memory adapter below both are).
class TupleSource {
public:
    virtual ~TupleSource() = default;
    virtual std::uint64_t num_tuples() const = 0;
    virtual std::size_t num_decisions() const = 0;
    // Append tuples [begin, begin + count) to `out` (cleared first).
    virtual void read(std::uint64_t begin, std::uint64_t count,
                      std::vector<LoggedTuple>& out) const = 0;
    // Fault-tolerant read: append the tuples that could be produced (in
    // global order) and record the ranges that could not in `failures`
    // (appended). The default is all-or-nothing — it delegates to read()
    // and lets exceptions propagate; sources with sub-range recovery
    // (StoreTupleSource) override it.
    virtual void read_tolerant(std::uint64_t begin, std::uint64_t count,
                               std::vector<LoggedTuple>& out,
                               std::vector<TupleReadFailure>& failures) const {
        (void)failures;
        read(begin, count, out);
    }
};

// Adapter over an in-memory Trace (reference semantics — the trace must
// outlive the source). Used by tests to prove streaming == in-memory.
class TraceTupleSource final : public TupleSource {
public:
    explicit TraceTupleSource(const Trace& trace) : trace_(&trace) {}
    std::uint64_t num_tuples() const override { return trace_->size(); }
    std::size_t num_decisions() const override {
        return trace_->num_decisions();
    }
    void read(std::uint64_t begin, std::uint64_t count,
              std::vector<LoggedTuple>& out) const override;

private:
    const Trace* trace_;
};

enum class FailureMode { kStrict = 0, kQuarantine = 1, kDegrade = 2 };

const char* to_string(FailureMode mode) noexcept;
// Parses "strict" / "quarantine" / "degrade"; throws std::invalid_argument
// otherwise. Shared by the CLI (--on-error) and tests.
FailureMode parse_failure_mode(std::string_view text);

// One quarantined run of tuples (contiguous, same reason).
struct QuarantineRecord {
    std::uint64_t begin = 0; // global tuple index
    std::uint64_t count = 0;
    std::string reason;      // stable reason code
    std::int64_t shard = -1; // originating shard, -1 if unattributable
};

// What a tolerant run skipped and why. Counts are exact; `records` is
// capped at kMaxRecords (overflow is counted in records_dropped). All
// fields, including record order, are deterministic for a given fault
// schedule and independent of DRE_THREADS.
struct QuarantineReport {
    static constexpr std::size_t kMaxRecords = 4096;

    std::uint64_t tuples_total = 0;     // tuples the source advertised
    std::uint64_t tuples_evaluated = 0; // tuples that reached the estimators
    std::uint64_t tuples_quarantined = 0;
    std::uint64_t chunks_quarantined = 0; // whole chunks lost to chunk faults
    std::map<std::string, std::uint64_t> reason_counts;
    std::map<std::int64_t, std::uint64_t> shard_counts; // -1 = unattributed
    std::vector<QuarantineRecord> records;
    std::uint64_t records_dropped = 0;

    bool empty() const noexcept { return tuples_quarantined == 0; }
    // Fraction of the trace that was evaluated (1.0 for a clean run).
    double coverage() const noexcept;
    // Record one quarantined range (updates every counter; coalesces with
    // the previous record when contiguous with the same reason and shard).
    void add(std::uint64_t begin, std::uint64_t count,
             const std::string& reason, std::int64_t shard);
    // Fold `other` (a later chunk's report) into this one, in chunk order.
    void merge(const QuarantineReport& other);
    // Canonical text rendering — deterministic and byte-diffable across
    // runs and thread counts (the CI chaos-smoke job diffs these).
    std::string to_text() const;
};

struct StreamingOptions {
    EstimatorOptions estimator_options;
    // Bootstrap CI settings for the DR estimate (0 replicates disables the
    // CI, mirroring EvaluationConfig).
    int ci_replicates = 0;
    double ci_level = 0.95;
    // Chunks resident per pipeline wave (each ≤ par::kReduceChunk tuples).
    // 0 = auto (4 × pool threads). Bounds peak memory; never affects
    // results.
    std::size_t wave_chunks = 0;
    // Failure handling (see file comment). kStrict preserves the original
    // evaluate_streaming behavior bit-for-bit.
    FailureMode on_error = FailureMode::kStrict;
    // Non-empty: write the reduction state here after every wave (atomic
    // tmp+rename) so an interrupted run can resume.
    std::string checkpoint_path;
    // Resume from checkpoint_path if the file exists (missing file =>
    // fresh run; present-but-mismatched => std::runtime_error).
    bool resume = false;
    // Cooperative interruption (SIGINT/SIGTERM handlers set this): checked
    // once per wave, *after* the wave's in-order merge and checkpoint
    // flush, so a stop always leaves a complete, resumable state on disk.
    // The in-flight wave is drained, never abandoned mid-chunk. When the
    // flag is seen with work remaining, StreamingInterrupted is thrown.
    const std::atomic<bool>* interrupt = nullptr;
};

// Raised when StreamingOptions::interrupt turned true with chunks still
// unprocessed. By construction the last completed wave was merged and (if
// checkpoint_path is set) flushed, so rerunning with resume=true continues
// bit-identically from where the interrupt landed.
class StreamingInterrupted : public std::runtime_error {
public:
    StreamingInterrupted(std::uint64_t chunks_completed,
                         std::uint64_t chunks_total)
        : std::runtime_error("streaming evaluation interrupted after " +
                             std::to_string(chunks_completed) + "/" +
                             std::to_string(chunks_total) + " chunks"),
          chunks_completed_(chunks_completed), chunks_total_(chunks_total) {}

    std::uint64_t chunks_completed() const noexcept {
        return chunks_completed_;
    }
    std::uint64_t chunks_total() const noexcept { return chunks_total_; }

private:
    std::uint64_t chunks_completed_;
    std::uint64_t chunks_total_;
};

struct StreamingResult {
    PolicyEvaluation evaluation;
    QuarantineReport quarantine;
};

// Streams `source` through `model` and `policy` with full failure
// handling. The model must already be fitted (fit on a bounded sample for
// true out-of-core runs, or reuse Evaluator::reward_model() when comparing
// paths). Under kStrict the evaluation matches Evaluator::evaluate
// bit-for-bit except that dr.per_tuple stays empty — per-tuple vectors are
// exactly what streaming refuses to materialize. Under the tolerant modes
// the estimates are exact over the surviving tuples; throws if *every*
// tuple is quarantined.
StreamingResult evaluate_streaming_guarded(const TupleSource& source,
                                           const RewardModel& model,
                                           const Policy& policy,
                                           const StreamingOptions& options,
                                           stats::Rng rng);

// Strict-mode convenience wrapper: exactly the historical API. Equivalent
// to evaluate_streaming_guarded(...).evaluation with options.on_error
// forced to kStrict.
PolicyEvaluation evaluate_streaming(const TupleSource& source,
                                    const RewardModel& model,
                                    const Policy& policy,
                                    const StreamingOptions& options,
                                    stats::Rng rng);

} // namespace dre::core

#endif // DRE_CORE_STREAMING_H
