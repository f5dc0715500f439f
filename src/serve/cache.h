// EvalCache — the cross-request read-only cache at the heart of dre::serve.
//
// The expensive inputs of an evaluation request are pure functions of the
// request's identity fields and the bytes on disk:
//
//   trace         (trace path)            → loaded Trace
//   policy        (trace path, spec)      → parsed/fitted Policy
//   evaluator     (trace path, model)     → fitted RewardModel + q̂
//                                           PredictionMatrix inside an
//                                           Evaluator
//
// None of them depends on the seed or CI settings: with cross_fit and
// estimate_propensities off, the Evaluator constructor never draws from
// its RNG, and Evaluator::evaluate_seeded takes the request's Rng(seed)
// and CI overrides per call. So one cached Evaluator answers every
// (policy, seed, ci) combination on its (trace, model) pair with results
// byte-identical to a fresh CLI run — that is the cache's correctness
// contract, and test_serve proves it.
//
// Concurrency: each keyed slot is built exactly once under std::call_once
// while other requesters for the same key block on that flag; a builder
// exception is captured into the slot and rethrown to every requester
// (deterministic failures are cached like deterministic successes —
// retrying a malformed spec cannot help). Completed slots are shared
// immutable state behind shared_ptr and a shared_mutex-guarded map, so
// steady-state lookups take only a reader lock. Hit/miss counters are kept
// as plain atomics (asserted by tests) and mirrored into the obs registry
// (serve.cache.*).
#ifndef DRE_SERVE_CACHE_H
#define DRE_SERVE_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "core/evaluator.h"
#include "core/policy.h"
#include "trace/trace.h"

namespace dre::serve {

struct CacheCounters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
};

struct CacheStats {
    std::uint64_t trace_hits = 0, trace_misses = 0;
    std::uint64_t policy_hits = 0, policy_misses = 0;
    std::uint64_t evaluator_hits = 0, evaluator_misses = 0;
    std::uint64_t result_hits = 0, result_misses = 0;
};

// One finished non-degraded evaluation, kept for brownout cache-only
// serving: under overload the io thread can answer a repeat request with
// these exact bytes without queueing any compute.
struct CachedResult {
    std::string text;
    double dr = 0.0;
};

class EvalCache {
public:
    using TracePtr = std::shared_ptr<const Trace>;
    using PolicyPtr = std::shared_ptr<const core::Policy>;
    using EvaluatorPtr = std::shared_ptr<const core::Evaluator>;

    // Each getter returns the cached value for `key`, building it at most
    // once via `build` (other threads with the same key wait for that one
    // build). `hit` reports whether the value pre-existed — the admission
    // layer forwards it to the client's Result frame.
    TracePtr trace(const std::string& key,
                   const std::function<TracePtr()>& build, bool* hit = nullptr);
    PolicyPtr policy(const std::string& key,
                     const std::function<PolicyPtr()>& build,
                     bool* hit = nullptr);
    EvaluatorPtr evaluator(const std::string& key,
                           const std::function<EvaluatorPtr()>& build,
                           bool* hit = nullptr);

    // Bounded LRU over finished full-fidelity results, keyed by the
    // server's job key (trace, policy, model, ci, seed). Unlike the slot
    // maps above this one is write-through and evicting — it exists so
    // brownout can serve *something exact* without compute, not to hold
    // every response ever produced.
    using ResultPtr = std::shared_ptr<const CachedResult>;
    ResultPtr result(const std::string& key); // null = miss
    void put_result(const std::string& key, ResultPtr value);

    CacheStats stats() const;

private:
    template <typename T>
    struct Slot {
        std::once_flag once;
        std::atomic<bool> ready{false};
        std::shared_ptr<const T> value;
        std::exception_ptr error;
    };

    template <typename T>
    struct SlotMap {
        mutable std::shared_mutex mutex;
        std::map<std::string, std::shared_ptr<Slot<T>>> slots;
        CacheCounters counters;

        std::shared_ptr<const T> get_or_build(
            const std::string& key,
            const std::function<std::shared_ptr<const T>()>& build, bool* hit,
            const char* hit_metric, const char* miss_metric);
    };

    SlotMap<Trace> traces_;
    SlotMap<core::Policy> policies_;
    SlotMap<core::Evaluator> evaluators_;

    static constexpr std::size_t kResultCacheCapacity = 256;
    mutable std::mutex result_mutex_;
    std::list<std::string> result_lru_; // front = most recently used
    std::map<std::string, std::pair<ResultPtr, std::list<std::string>::iterator>>
        results_;
    CacheCounters result_counters_;
};

} // namespace dre::serve

#endif // DRE_SERVE_CACHE_H
