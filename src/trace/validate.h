// Structural tuple validation with stable reason codes.
//
// One classifier shared by every layer that meets raw tuples: the audit
// linter (core/audit), the in-memory load paths (dre_eval, dre_serve), and
// the hardened streaming evaluator (core/streaming), whose QuarantineReport
// uses exactly these reason-code strings. A tuple that passes is safe for
// every estimator: finite reward and context, propensity in (0, 1], and a
// decision inside [0, num_decisions). The failure record a tolerant store
// read hands the streaming evaluator is defined here too.
#ifndef DRE_TRACE_VALIDATE_H
#define DRE_TRACE_VALIDATE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "trace/trace.h"
#include "trace/types.h"

namespace dre {

enum class TupleDefect {
    kNone = 0,
    kNonFiniteReward,     // NaN/Inf reward
    kNonFiniteContext,    // NaN/Inf numeric context feature
    kInvalidPropensity,   // propensity outside (0, 1] or non-finite
    kDecisionOutOfRange,  // decision < 0 or >= num_decisions
};

// Stable machine-readable reason code (shared with QuarantineReport and
// the audit findings). kNone maps to "ok".
const char* reason_code(TupleDefect defect) noexcept;

// First defect found, or kNone. `num_decisions` of 0 skips the decision
// range check (callers that don't know the decision space yet still reject
// negative ids).
TupleDefect classify_tuple(const LoggedTuple& tuple,
                           std::size_t num_decisions) noexcept;

// Per-defect tuple counts over a whole trace (reason code -> count;
// defect-free tuples are not counted). Empty result == clean trace.
std::map<std::string, std::uint64_t> count_defects(const Trace& trace,
                                                   std::size_t num_decisions);

// Drops every defective tuple in place and returns the per-reason counts
// of what was removed. Order of surviving tuples is preserved.
std::map<std::string, std::uint64_t> remove_defective_tuples(
    Trace& trace, std::size_t num_decisions);

// One contiguous run of tuples a tolerant read could not produce (a damaged
// store row group). `reason` is a stable reason-code literal
// (store::StoreError::reason_code); `begin` and `count` are in the
// reader's row coordinates; `shard` is -1 when unattributable. The store
// fills it and the streaming engine's quarantine reads it.
struct TupleReadFailure {
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
    const char* reason = "unknown";
    std::string detail;
    std::int64_t shard = -1;
};

// Rejects a trace the in-memory estimators cannot evaluate: throws
// std::runtime_error when it is empty, or when any tuple is defective with
// a census of reason codes and counts ("trace has defective tuples (...)").
void require_evaluable(const Trace& trace);

} // namespace dre

#endif // DRE_TRACE_VALIDATE_H
