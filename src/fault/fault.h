// Deterministic fault injection (`dre::fault`).
//
// The robustness counterpart of dre::obs: named *fault points* threaded
// through the store → streaming → estimator stack fire seeded, fully
// reproducible failures so that every hardened path (retry, quarantine,
// checkpoint/resume) can be exercised — in tests, in CI chaos runs, and
// from the CLI — without ever depending on real hardware misbehaving.
//
// Design rules:
//
//  * A fault decision is a pure function of (seed, point name, logical
//    index, attempt). The logical index is supplied by the caller (row
//    group id, chunk id, tuple id, open sequence), never a shared
//    execution-order counter, so the schedule is bit-identical for any
//    DRE_THREADS — the same property the rest of the repo builds on
//    (Rng::split(stream_id)-keyed child streams, see core/parallel.h).
//  * Firing means throwing FaultError from the instrumented point; the
//    consumer's classification (transient → retry, permanent → fail,
//    corruption → quarantine) is what is actually under test.
//
// Schedules are configured in code (Injector::configure) or from a spec
// string (--fault-spec):
//
//   store.read:p=0.01,kind=transient;store.crc:nth=7
//
//   <point>:<key>=<value>[,<key>=<value>...][;<point>:...]
//     p=<prob>      fire with probability p at each logical index, decided
//                   by the child stream Rng(seed).split(hash(point), index)
//     nth=<k>       fire exactly at the k-th logical index (1-based)
//     every=<k>     fire at every k-th logical index (1-based)
//     kind=<k>      transient | permanent | corruption | slow (default
//                   transient)
//     attempts=<a>  transient faults keep firing for the first `a` retry
//                   attempts (default 1: the first retry succeeds); set
//                   a >= the consumer's retry budget to exhaust it
//
// Registered fault points (logical index in parentheses):
//   store.open    (process-wide open sequence)  StoreReader constructor
//   store.read    (global row-group id)         row-group fetch, pre-CRC
//   store.crc     (global row-group id)         row-group CRC validation
//   stream.chunk  (global reduction-chunk id)   evaluate_streaming chunk
//   env.step      (tuple index)                 collect_trace interaction
//   serve.accept  (accept sequence)             EvalServer connection accept
//   serve.read    (read sequence)               EvalServer session recv
//   serve.write   (write sequence)              EvalServer frame send
//   serve.dispatch(dispatched-job sequence)     EvalServer dispatcher pickup
//
// The serve.* points are network-side: transient/permanent simulate the
// peer (or the path to it) dying — the connection is dropped; corruption
// flips a byte in flight; `kind=slow` is advisory-only and models a slow
// peer / partial writes: the server feeds reads byte-at-a-time and breaks
// writes into tiny chunked sends, exercising reassembly on both ends
// without changing any delivered byte. maybe_inject (the throwing macro)
// ignores slow faults entirely — only call sites that query the schedule
// via DRE_FAULT_CHECK can honor them.
#ifndef DRE_FAULT_FAULT_H
#define DRE_FAULT_FAULT_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dre::fault {

enum class FaultKind {
    kTransient,  // goes away on retry (once `attempts` is exhausted)
    kPermanent,  // fails every attempt — retrying is futile
    kCorruption, // data is damaged: not retryable, quarantineable
    kSlow,       // advisory: peer is slow / writes are partial, no error
};

const char* to_string(FaultKind kind) noexcept;

// Thrown by an armed fault point. Consumers catch it exactly like the
// organic error it stands in for (store::StoreError carries the same kind
// taxonomy).
class FaultError : public std::runtime_error {
public:
    FaultError(FaultKind kind, std::string point, std::uint64_t index);
    FaultKind kind() const noexcept { return kind_; }
    const std::string& point() const noexcept { return point_; }
    std::uint64_t index() const noexcept { return index_; }

private:
    FaultKind kind_;
    std::string point_;
    std::uint64_t index_;
};

// One point's schedule. Exactly one of {probability, nth, every} should be
// set; `configure` rejects specs that set none or several.
struct PointSpec {
    std::string point;
    double probability = 0.0;  // p= (0 disables)
    std::uint64_t nth = 0;     // nth= (1-based; 0 disables)
    std::uint64_t every = 0;   // every= (1-based period; 0 disables)
    FaultKind kind = FaultKind::kTransient;
    std::uint64_t attempts = 1; // transient: fire while attempt < attempts
};

// Parses a --fault-spec string into point schedules. Throws
// std::invalid_argument naming the offending token on malformed input.
std::vector<PointSpec> parse_fault_spec(const std::string& spec);

// Process-wide injector. Disabled (zero overhead beyond one relaxed atomic
// load per armed macro) until configure() installs a non-empty schedule.
// Configuration is not thread-safe; do it before spawning evaluation work
// (tests and the CLI configure at startup).
class Injector {
public:
    static Injector& global() noexcept;

    // Installs `specs` with the given schedule seed, replacing any prior
    // configuration. An empty vector disables injection entirely.
    void configure(std::vector<PointSpec> specs, std::uint64_t seed);
    void configure_spec(const std::string& spec, std::uint64_t seed);
    void reset(); // disable and forget the schedule

    bool enabled() const noexcept;

    // The pure decision function: should the `attempt`-th try of logical
    // invocation `index` of `point` fail, and how? Thread-safe once
    // configured.
    std::optional<FaultKind> check(std::string_view point,
                                   std::uint64_t index,
                                   std::uint64_t attempt) const noexcept;

    // check() + throw FaultError (and bump the obs fault counters) when a
    // fault fires. The macro below routes here. Slow faults are advisory
    // and never thrown; maybe_inject skips them.
    void maybe_inject(std::string_view point, std::uint64_t index,
                      std::uint64_t attempt) const;

    // check() + bump the obs fault counters, but never throw: the caller
    // acts on the returned kind itself (drop the connection, chunk the
    // write, flip a byte). This is the only way slow faults fire. The
    // DRE_FAULT_CHECK macro routes here.
    std::optional<FaultKind> fire(std::string_view point, std::uint64_t index,
                                  std::uint64_t attempt) const;

private:
    Injector() = default;
    std::vector<PointSpec> specs_;
    std::uint64_t seed_ = 0;
};

// Convenience for instrumented code (used by the macros).
void maybe_inject(std::string_view point, std::uint64_t index,
                  std::uint64_t attempt);
std::optional<FaultKind> fire(std::string_view point, std::uint64_t index,
                              std::uint64_t attempt);

} // namespace dre::fault

// Fault point: throws dre::fault::FaultError when the configured schedule
// fires for (point, index, attempt). `point` must be a string literal.
#define DRE_FAULT_INJECT(point, index, attempt)                               \
    ::dre::fault::maybe_inject(point, static_cast<std::uint64_t>(index),      \
                               static_cast<std::uint64_t>(attempt))

// Non-throwing fault point: evaluates to std::optional<FaultKind> so the
// call site decides how the fault manifests (close the socket, chunk the
// write, corrupt a byte, feed bytes one at a time).
#define DRE_FAULT_CHECK(point, index, attempt)                                \
    ::dre::fault::fire(point, static_cast<std::uint64_t>(index),              \
                       static_cast<std::uint64_t>(attempt))

#endif // DRE_FAULT_FAULT_H
