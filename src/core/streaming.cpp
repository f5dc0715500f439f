#include "core/streaming.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/parallel.h"
#include "core/qhat.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"
#include "trace/validate.h"

namespace dre::core {

void TraceTupleSource::read(std::uint64_t begin, std::uint64_t count,
                            std::vector<LoggedTuple>& out,
                            std::vector<TupleReadFailure>*) const {
    out.clear();
    if (begin + count > trace_->size())
        throw std::out_of_range("TraceTupleSource: read past end of trace");
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        out.push_back((*trace_)[begin + i]);
}

FailureMode parse_failure_mode(std::string_view text) {
    if (text == "strict") return FailureMode::kStrict;
    if (text == "quarantine") return FailureMode::kQuarantine;
    if (text == "degrade") return FailureMode::kDegrade;
    throw std::invalid_argument("unknown failure mode '" + std::string(text) +
                                "' (expected strict|quarantine|degrade)");
}

double QuarantineReport::coverage() const noexcept {
    if (tuples_total == 0) return 1.0;
    return static_cast<double>(tuples_evaluated) /
           static_cast<double>(tuples_total);
}

void QuarantineReport::add(std::uint64_t begin, std::uint64_t count,
                           const std::string& reason, std::int64_t shard) {
    if (count == 0) return;
    tuples_quarantined += count;
    reason_counts[reason] += count;
    shard_counts[shard] += count;
    if (!records.empty()) {
        QuarantineRecord& last = records.back();
        if (last.begin + last.count == begin && last.reason == reason &&
            last.shard == shard) {
            last.count += count;
            return;
        }
    }
    if (records.size() >= kMaxRecords) {
        ++records_dropped;
        return;
    }
    records.push_back({begin, count, reason, shard});
}

void QuarantineReport::merge(const QuarantineReport& other) {
    tuples_quarantined += other.tuples_quarantined;
    chunks_quarantined += other.chunks_quarantined;
    for (const auto& [reason, n] : other.reason_counts)
        reason_counts[reason] += n;
    for (const auto& [shard, n] : other.shard_counts) shard_counts[shard] += n;
    records_dropped += other.records_dropped;
    for (const QuarantineRecord& rec : other.records) {
        if (!records.empty()) {
            QuarantineRecord& last = records.back();
            if (last.begin + last.count == rec.begin &&
                last.reason == rec.reason && last.shard == rec.shard) {
                last.count += rec.count;
                continue;
            }
        }
        if (records.size() >= kMaxRecords) {
            ++records_dropped;
            continue;
        }
        records.push_back(rec);
    }
}

std::string QuarantineReport::to_text() const {
    char line[256];
    std::string out = "quarantine report\n";
    const auto add_count = [&](const char* label, std::uint64_t value) {
        std::snprintf(line, sizeof line, "  %-20s%llu\n", label,
                      static_cast<unsigned long long>(value));
        out += line;
    };
    add_count("tuples total:", tuples_total);
    add_count("tuples evaluated:", tuples_evaluated);
    add_count("tuples quarantined:", tuples_quarantined);
    add_count("chunks quarantined:", chunks_quarantined);
    std::snprintf(line, sizeof line, "  %-20s%.17g\n", "coverage:", coverage());
    out += line;
    if (!reason_counts.empty()) {
        out += "  reasons:\n";
        for (const auto& [reason, n] : reason_counts) {
            std::snprintf(line, sizeof line, "    %s: %llu\n", reason.c_str(),
                          static_cast<unsigned long long>(n));
            out += line;
        }
    }
    if (!shard_counts.empty()) {
        out += "  shards:\n";
        for (const auto& [shard, n] : shard_counts) {
            std::snprintf(line, sizeof line, "    shard %lld: %llu\n",
                          static_cast<long long>(shard),
                          static_cast<unsigned long long>(n));
            out += line;
        }
    }
    if (!records.empty()) {
        std::snprintf(line, sizeof line,
                      "  records (%llu shown, %llu dropped):\n",
                      static_cast<unsigned long long>(records.size()),
                      static_cast<unsigned long long>(records_dropped));
        out += line;
        for (const QuarantineRecord& rec : records) {
            std::snprintf(line, sizeof line, "    [%llu, %llu) %s shard=%lld\n",
                          static_cast<unsigned long long>(rec.begin),
                          static_cast<unsigned long long>(rec.begin + rec.count),
                          rec.reason.c_str(), static_cast<long long>(rec.shard));
            out += line;
        }
    }
    return out;
}

namespace {

// DRECKPT1 (core/checkpoint.h): the payload is the complete reduction state
// at a wave boundary, so a resumed run restarts from *exactly* the
// interrupted run's floating-point state.
constexpr std::string_view kCheckpointMagic = "DRECKPT1";

// Tries per chunk when its stream.chunk fault is transient (the per-shard
// store retries are the source's own).
constexpr int kChunkMaxAttempts = 3;

// The streaming run's own state across chunks; the checkpoint saves it
// together with the engine's totals and bootstrap replicate sums.
struct RunState {
    std::uint64_t next_chunk = 0; // first chunk NOT yet merged
    QuarantineReport quarantine;
};

// The engine totals' fields in checkpoint order.
template <typename Io>
void visit_totals(EngineTotals& t, Io& io) {
    for (par::MeanState* m : {&t.dm, &t.ips, &t.dr, &t.switch_dr}) {
        io(m->n);
        io(m->mean);
    }
    for (double* x : {&t.weight_total, &t.weighted_reward_total, &t.o_sum,
                      &t.o_sum_sq, &t.o_max})
        io(*x);
    io(t.o_zeros);
    stats::Accumulator::State acc = t.weight_acc.state();
    io(acc.n);
    for (double* x : {&acc.mean, &acc.m2, &acc.sum, &acc.min, &acc.max})
        io(*x);
    t.weight_acc = stats::Accumulator::from_state(acc);
}

// The whole payload, listed once for both directions: `io` is a
// CheckpointWriter or a CheckpointReader. `sums` holds the bootstrap's
// replicate sums (one per replicate, empty without a bootstrap).
template <typename Io>
void visit_checkpoint(
    Io& io, RunState& state, EngineTotals& totals,
    const std::optional<stats::ChunkedMeanBootstrap>& bootstrap,
    std::vector<double>& sums) {
    io(state.next_chunk);
    visit_totals(totals, io);
    io.expect(bootstrap.has_value(), "bootstrap presence");
    if (bootstrap) {
        io.expect(bootstrap->replicates(), "replicate count");
        for (const std::uint64_t word : bootstrap->base_rng().state())
            io.expect(word, "bootstrap generator state");
        for (double& sum : sums) io(sum);
    }
    QuarantineReport& q = state.quarantine;
    for (std::uint64_t* x : {&q.tuples_total, &q.tuples_evaluated,
                             &q.tuples_quarantined, &q.chunks_quarantined,
                             &q.records_dropped})
        io(*x);
    const auto count_entry = [&](auto& kv) {
        io(kv.first);
        io(kv.second);
    };
    io.list(q.reason_counts, count_entry);
    io.list(q.shard_counts, count_entry);
    io.list(q.records, [&](QuarantineRecord& rec) {
        io(rec.begin);
        io(rec.count);
        io(rec.reason);
        io(rec.shard);
    });
}

// The options/geometry fingerprint a checkpoint is only valid for. The
// bootstrap base-generator words fold in the caller's seed, so resuming
// with a different --seed is refused instead of silently diverging.
std::uint64_t config_hash(std::uint64_t n, const StreamingOptions& options,
                          const EvaluationEngine& engine) {
    CheckpointWriter w;
    w(n);
    w(par::kReduceChunk);
    w(options.ci_replicates);
    w(options.ci_level);
    w(options.estimator_options.weight_clip);
    w(options.estimator_options.switch_threshold);
    w(static_cast<std::int64_t>(options.on_error));
    w(engine.bootstrap.has_value());
    if (engine.bootstrap)
        for (const std::uint64_t word : engine.bootstrap->base_rng().state())
            w(word);
    return w.digest();
}

void write_checkpoint(const std::string& path, std::uint64_t hash,
                      RunState& state, const EvaluationEngine& engine) {
    EngineTotals totals = engine.totals;
    std::vector<double> sums;
    if (engine.bootstrap)
        sums.assign(engine.bootstrap->replicate_sums().begin(),
                    engine.bootstrap->replicate_sums().end());
    CheckpointWriter w(kCheckpointMagic, hash);
    visit_checkpoint(w, state, totals, engine.bootstrap, sums);
    w.save(path);
    DRE_COUNTER_INC("stream.checkpoints_written");
}

// Loads and verifies a checkpoint. Returns false (state untouched) when the
// file does not exist; throws on any malformed or mismatched content — a
// damaged checkpoint must never silently fall back to a fresh run.
bool load_checkpoint(const std::string& path, std::uint64_t hash,
                     std::uint64_t n, std::uint64_t chunks, RunState& state,
                     EvaluationEngine& engine) {
    std::optional<CheckpointReader> r =
        CheckpointReader::open(path, kCheckpointMagic, hash, "checkpoint");
    if (!r) return false;
    auto& bootstrap = engine.bootstrap;
    std::vector<double> sums(
        bootstrap ? static_cast<std::size_t>(bootstrap->replicates()) : 0);
    visit_checkpoint(*r, state, engine.totals, bootstrap, sums);
    r->finish();
    if (state.next_chunk > chunks)
        r->fail("next chunk " + std::to_string(state.next_chunk) +
                " past the last of " + std::to_string(chunks));
    if (state.quarantine.tuples_total != n)
        r->fail("tuple total " + std::to_string(state.quarantine.tuples_total) +
                " != " + std::to_string(n));
    if (state.quarantine.tuples_evaluated != engine.totals.dm.n)
        r->fail("tuples evaluated " +
                std::to_string(state.quarantine.tuples_evaluated) +
                " != merged tuples " + std::to_string(engine.totals.dm.n));
    if (state.quarantine.records.size() > QuarantineReport::kMaxRecords)
        r->fail("record count exceeds cap");
    if (bootstrap) bootstrap->restore_sums(sums);
    DRE_COUNTER_INC("stream.resumes");
    return true;
}

const char* stream_fault_reason(fault::FaultKind kind) noexcept {
    switch (kind) {
        case fault::FaultKind::kTransient: return "stream-fault-transient";
        case fault::FaultKind::kPermanent: return "stream-fault-permanent";
        case fault::FaultKind::kCorruption: return "stream-fault-corruption";
        // Slow faults never throw (Injector::maybe_inject returns early).
        case fault::FaultKind::kSlow: break;
    }
    return "stream-fault";
}

} // namespace

StreamingResult evaluate_streaming_guarded(const TupleSource& source,
                                           const RewardModel& model,
                                           const Policy& policy,
                                           const StreamingOptions& options,
                                           stats::Rng rng) {
    DRE_SPAN("evaluator.stream");
    const std::uint64_t n = source.num_tuples();
    if (n == 0) throw std::invalid_argument("evaluate_streaming: empty source");
    if (source.num_decisions() > policy.num_decisions())
        throw std::invalid_argument(
            "evaluate_streaming: source uses decisions outside policy space");
    if (options.resume && options.checkpoint_path.empty())
        throw std::invalid_argument(
            "evaluate_streaming: resume requires a checkpoint path");
    const bool tolerant = options.on_error != FailureMode::kStrict;

    // The engine Evaluator drives too: same RNG protocol, same per-chunk
    // fold, same in-order merge and finalize. q̂ rows come from a
    // chunk-local fill of `model`.
    EvaluationEngine engine(policy, model.num_decisions(),
                            options.estimator_options, rng,
                            options.ci_replicates, options.ci_level);

    // Chunk geometry is the *global tuple index* over kReduceChunk — the
    // same boundaries par::chunked_mean/chunked_sum use on the in-memory
    // arrays, and deliberately decoupled from row-group and shard layout.
    const std::uint64_t chunks =
        (n + par::kReduceChunk - 1) / par::kReduceChunk;
    const std::size_t wave =
        options.wave_chunks != 0
            ? options.wave_chunks
            : std::max<std::size_t>(4 * par::thread_count(), 1);

    RunState state;
    state.quarantine.tuples_total = n;

    const std::uint64_t hash = config_hash(n, options, engine);
    if (options.resume)
        load_checkpoint(options.checkpoint_path, hash, n, chunks, state,
                        engine);

    // The per-tuple decision-range check uses the policy's decision space:
    // anything inside it is evaluable even if the source header undercounts.
    const std::size_t decision_space = policy.num_decisions();

    // Each in-flight chunk's skipped tuples, merged in chunk order after
    // its wave like the engine's folds.
    std::vector<QuarantineReport> wave_quarantine(
        static_cast<std::size_t>(std::min<std::uint64_t>(wave, chunks)));
    for (std::uint64_t wave_begin = state.next_chunk; wave_begin < chunks;
         wave_begin += wave) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(wave, chunks - wave_begin));
        engine.fold_in_order(wave_begin, count, [&](std::uint64_t c) {
            DRE_SPAN("evaluator.stream_chunk");
            const std::uint64_t begin = c * par::kReduceChunk;
            const std::uint64_t len =
                std::min<std::uint64_t>(par::kReduceChunk, n - begin);
            QuarantineReport& quarantine = wave_quarantine[c - wave_begin];
            ChunkFold fold;

            // stream.chunk fault gate, keyed by the global chunk id so a
            // schedule fires on the same chunks for any DRE_THREADS.
            // Transients retry (deterministically, up to the budget);
            // anything else aborts a strict run or quarantines the whole
            // chunk in the tolerant modes.
            bool chunk_dead = false;
            for (int attempt = 0;; ++attempt) {
                try {
                    DRE_FAULT_INJECT("stream.chunk", c, attempt);
                    break;
                } catch (const fault::FaultError& e) {
                    if (e.kind() == fault::FaultKind::kTransient &&
                        attempt + 1 < kChunkMaxAttempts) {
                        DRE_COUNTER_INC("stream.chunk_retries");
                        continue;
                    }
                    if (!tolerant) throw;
                    quarantine.add(begin, len, stream_fault_reason(e.kind()),
                                     -1);
                    ++quarantine.chunks_quarantined;
                    chunk_dead = true;
                    break;
                }
            }

            std::vector<LoggedTuple> buffer;
            std::vector<LoggedTuple> kept;
            if (!chunk_dead && !tolerant) {
                source.read(begin, len, buffer, nullptr);
                if (buffer.size() != len)
                    throw std::runtime_error(
                        "evaluate_streaming: source returned a short chunk");
                kept = std::move(buffer);
            } else if (!chunk_dead) {
                std::vector<TupleReadFailure> failures;
                source.read(begin, len, buffer, &failures);
                for (const TupleReadFailure& f : failures)
                    quarantine.add(f.begin, f.count, f.reason, f.shard);
                // Walk the chunk's global index range, skipping the failed
                // sub-ranges, to pair each surviving tuple with its global
                // index for validation.
                kept.reserve(buffer.size());
                std::size_t next_tuple = 0;
                std::size_t next_failure = 0;
                for (std::uint64_t g = begin; g < begin + len; ++g) {
                    if (next_failure < failures.size() &&
                        g >= failures[next_failure].begin) {
                        g = failures[next_failure].begin +
                            failures[next_failure].count - 1;
                        ++next_failure;
                        continue;
                    }
                    if (next_tuple >= buffer.size())
                        throw std::runtime_error(
                            "evaluate_streaming: tolerant read returned "
                            "fewer tuples than its failure ranges imply");
                    LoggedTuple& t = buffer[next_tuple++];
                    const TupleDefect defect =
                        classify_tuple(t, decision_space);
                    if (defect == TupleDefect::kNone)
                        kept.push_back(std::move(t));
                    else
                        quarantine.add(g, 1, reason_code(defect), -1);
                }
            }

            if (!kept.empty()) {
                const Trace chunk(std::move(kept));
                // Chunk-local q̂ block. build() inlines serially inside a
                // pool task and each slot is a pure function of (model,
                // tuple, d), so the block equals the matching rows of the
                // full matrix.
                const PredictionMatrix qhat =
                    PredictionMatrix::build(model, chunk);
                fold = engine.fold(c, chunk.tuples(), qhat.row(0));
            }
            DRE_COUNTER_INC("evaluator.chunks_streamed");
            DRE_COUNTER_ADD("evaluator.tuples_streamed", len);
            return fold;
        });
        for (std::size_t i = 0; i < count; ++i) {
            state.quarantine.merge(wave_quarantine[i]);
            wave_quarantine[i] = QuarantineReport{};
        }
        state.quarantine.tuples_evaluated = engine.totals.dm.n;
        state.next_chunk = wave_begin + count;
        if (!options.checkpoint_path.empty())
            write_checkpoint(options.checkpoint_path, hash, state, engine);
        // Cooperative stop: only at a wave boundary, only after the merge
        // and checkpoint above, and only when work remains — an interrupt
        // that lands during the final wave just lets the run finish.
        if (options.interrupt != nullptr && state.next_chunk < chunks &&
            options.interrupt->load(std::memory_order_relaxed))
            throw StreamingInterrupted(state.next_chunk, chunks);
    }

    if (state.quarantine.tuples_quarantined > 0) {
        DRE_COUNTER_ADD("stream.tuples_quarantined",
                        state.quarantine.tuples_quarantined);
        DRE_COUNTER_ADD("stream.chunks_quarantined",
                        state.quarantine.chunks_quarantined);
    }

    if (state.quarantine.tuples_evaluated == 0)
        throw std::runtime_error(
            "evaluate_streaming: every tuple was quarantined (coverage 0) — "
            "no estimate is possible");

    // Denominators are the *evaluated* tuple count: the estimates are exact
    // over the surviving sub-trace (== n in strict/clean runs).
    StreamingResult result;
    result.evaluation = engine.finalize();
    result.quarantine = std::move(state.quarantine);
    if (options.on_error == FailureMode::kDegrade)
        widen_dr_ci(result.evaluation, result.quarantine.coverage());
    return result;
}

PolicyEvaluation evaluate_streaming(const TupleSource& source,
                                    const RewardModel& model,
                                    const Policy& policy,
                                    const StreamingOptions& options,
                                    stats::Rng rng) {
    StreamingOptions strict = options;
    strict.on_error = FailureMode::kStrict;
    return evaluate_streaming_guarded(source, model, policy, strict, rng)
        .evaluation;
}

} // namespace dre::core
