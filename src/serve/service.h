// EvalService — the evaluation engine behind the TCP server (and behind
// in-process tests, which exercise it without sockets).
//
// One instance owns the traces, fitted models, and prediction matrices
// for every trace it has been asked about, via EvalCache. A request is
// answered by:
//
//   1. cached trace for the request path (loaded once through
//      store::load_trace; a .drt store is closed once its tuples are
//      copied, so the service holds no file mapped),
//   2. cached policy for (trace, policy spec) — greedy specs fit a reward
//      model, which is the expensive part,
//   3. cached Evaluator for (trace, model kind) — reward-model fit plus
//      the full q̂ PredictionMatrix build,
//   4. evaluate_seeded(policy, Rng(seed), ci, level) — the only per-request
//      compute: one fused estimator sweep per chunk over the cached trace
//      and q̂ rows, with (optionally) the bootstrap folded in.
//
// The response text is the byte-exact stdout of
//   dre_eval <trace> <policy> --model <model> [--ci N] --seed S
// — same header line, same make_policy_report renderer, same RNG
// discipline — so a client can diff a server response against the CLI and
// the serve-smoke CI job does exactly that.
#ifndef DRE_SERVE_SERVICE_H
#define DRE_SERVE_SERVICE_H

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "serve/cache.h"
#include "serve/protocol.h"

namespace dre::serve {

// Thrown when a request's deadline expires mid-evaluation. phase() names
// where the budget ran out ("cache", "compute", "serialize" from the
// service; the server adds "queue" and "admission"). The dispatcher maps
// this to Error{kDeadlineExceeded}.
class DeadlineExceeded : public std::runtime_error {
public:
    explicit DeadlineExceeded(std::string phase)
        : std::runtime_error("deadline exceeded in " + phase + " phase"),
          phase_(std::move(phase)) {}
    const std::string& phase() const noexcept { return phase_; }

private:
    std::string phase_;
};

// Injectable expiry predicate: returns true once the request's budget is
// spent. A default-constructed (empty) function means no deadline. Tests
// substitute counting lambdas to force expiry in a chosen phase without
// racing wall clocks.
using DeadlineFn = std::function<bool()>;

class EvalService {
public:
    // Per-request phase breakdown for telemetry (Result frame timing tail
    // and the journal).
    struct EvalPhases {
        double cache_ms = 0.0;     // trace/policy/evaluator cache stage
        double compute_ms = 0.0;   // evaluate_seeded proper
        double serialize_ms = 0.0; // report render into ResultMsg::text
        bool trace_hit = false;
        bool policy_hit = false;
        bool evaluator_hit = false;
    };

    // Throws std::invalid_argument for malformed specs (→ kBadRequest),
    // std::runtime_error for missing/corrupt/empty traces (→ kNotFound),
    // DeadlineExceeded when `deadline` reports expiry at a phase boundary
    // (→ kDeadlineExceeded), anything else → kInternal. Thread-safe;
    // concurrent calls share the caches and the builds inside them.
    ResultMsg evaluate(const EvaluateMsg& request, EvalPhases* phases = nullptr,
                       const DeadlineFn& deadline = {});

    // Brownout path: evaluates the request over a prefix sub-trace of
    // roughly `coverage` of the full trace (grown until the prefix spans
    // every decision id, so fitted policies/models stay dimensionally
    // compatible), with denominators rescaled exactly over the tuples
    // actually evaluated and DR CI half-widths widened by 1/coverage —
    // the PR 5 degrade-mode semantics. The Result carries degraded=true,
    // the achieved coverage, and a trailing "degraded:" text line; it is
    // deliberately NOT byte-comparable to the full-fidelity response.
    ResultMsg evaluate_degraded(const EvaluateMsg& request, double coverage,
                                EvalPhases* phases = nullptr,
                                const DeadlineFn& deadline = {});

    // Response cache pass-through for the server's brownout admission: the
    // dispatcher remembers every finished full-fidelity result under its
    // job key; under overload a repeat request is answered from here
    // without queueing.
    EvalCache::ResultPtr cached_result(const std::string& job_key) {
        return cache_.result(job_key);
    }
    void remember_result(const std::string& job_key, std::string text,
                         double dr) {
        cache_.put_result(job_key, std::make_shared<const CachedResult>(
                                       CachedResult{std::move(text), dr}));
    }

    CacheStats cache_stats() const { return cache_.stats(); }

private:
    // Both paths; `coverage` is set for a brownout.
    ResultMsg answer(const EvaluateMsg& request, std::optional<double> coverage,
                     EvalPhases* phases, const DeadlineFn& deadline);

    EvalCache cache_;
};

} // namespace dre::serve

#endif // DRE_SERVE_SERVICE_H
