// Deterministic parallel execution layer (`dre::par`).
//
// A small, chunked thread pool for the embarrassingly-parallel loops in the
// evaluation pipeline (bootstrap replicates, policy comparisons, per-tuple
// estimator sums, batch kNN queries, multi-run bench harnesses).
//
// The repo's hard guarantee is bit-for-bit reproducibility for a fixed seed
// (see tests/test_determinism.cpp), so the layer is designed around one rule:
// *scheduling is dynamic, but results must depend only on logical indices.*
// Concretely:
//
//  * every work item writes only its own output slot(s);
//  * every work item draws randomness only from an Rng stream keyed by its
//    logical index (see Rng::split(stream_id) in stats/rng.h);
//  * reductions combine fixed-size chunk partials in chunk order, so the
//    floating-point association never depends on the thread count.
//
// Under these rules any thread count — including the fully serial
// `DRE_THREADS=1` path — produces bit-identical outputs.
#ifndef DRE_CORE_PARALLEL_H
#define DRE_CORE_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace_context.h"

namespace dre::par {

// Fixed chunk length for deterministic reductions. Independent of the thread
// count by construction; changing it changes results for inputs longer than
// one chunk, so treat it like a golden constant.
inline constexpr std::size_t kReduceChunk = 4096;

// Fixed pool of worker threads executing index-based batches. Workers claim
// indices from an atomic counter (dynamic load balancing); see the file
// header for how determinism is preserved anyway.
class ThreadPool {
public:
    // `threads` is the total parallelism (callers participate in batches, so
    // `threads - 1` workers are spawned). `threads == 1` spawns none and
    // runs every batch inline.
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const noexcept { return workers_.size() + 1; }

    // Run fn(i) for every i in [0, n); blocks until the batch drains. The
    // calling thread participates. The first exception thrown by any task is
    // rethrown here once all tasks finished. Calls from inside a task (nested
    // parallelism) are safe: they execute serially inline.
    void run(std::size_t n, const std::function<void(std::size_t)>& fn);

private:
    // One batch submission. Heap-allocated and shared between the submitting
    // thread and any workers that observed it, so a worker that was woken
    // for a batch but scheduled late can never act on recycled counters: a
    // stale batch's `next` is exhausted forever, which means the dangling
    // `fn` of a completed batch is provably never dereferenced again.
    struct Batch {
        const std::function<void(std::size_t)>* fn = nullptr;
        std::size_t size = 0;
        // The submitting thread's request context; workers adopt it while
        // draining this batch, so spans opened inside pool tasks attach to
        // the request that submitted the work (zero when untraced).
        obs::TraceContext trace_ctx;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> completed{0};
    };

    void worker_loop();
    // Claim-and-execute loop shared by workers and the submitting thread.
    void drain(Batch& batch);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::shared_ptr<Batch> batch_;   // guarded; null when idle
    std::uint64_t epoch_ = 0;        // guarded
    std::exception_ptr first_error_; // guarded
    bool stop_ = false;              // guarded
};

// --- Global pool -----------------------------------------------------------
//
// Lazily constructed on first use. Size: DRE_THREADS if set (clamped to
// >= 1; "1" means fully serial), else the number of CPUs actually available
// to this process (CPU affinity mask), not std::thread::hardware_concurrency()
// — in containers with a CPU quota the latter over-reports and an oversized
// pool thrashes instead of speeding anything up.

// CPUs usable by this process: the affinity-mask population count on Linux,
// falling back to hardware_concurrency() (>= 1) elsewhere.
std::size_t available_cpus();

// The configured parallelism (>= 1). Initializes the pool if needed.
std::size_t thread_count();

// Reconfigure the global pool (benches and determinism tests switch between
// serial and parallel in-process). `n == 0` restores the environment/hardware
// default. Must not be called from inside a parallel region.
void set_thread_count(std::size_t n);

ThreadPool& global_pool();

// True while the calling thread executes a pool task (nested calls inline).
bool in_parallel_region() noexcept;

// --- Loops -----------------------------------------------------------------

// fn(i) for i in [0, n). Use for coarse-grained items (a bootstrap
// replicate, a policy evaluation, a bench run).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

// fn(begin, end) over contiguous sub-ranges covering [0, n). Use for
// fine-grained per-element loops; the grain is an implementation detail
// because correct callers only perform slot-disjoint writes.
//
// `min_grain` bounds the smallest sub-range dispatched to the pool; tune it
// to the per-item cost. The default (kDefaultGrain) suits cheap per-element
// work; callers whose items are individually expensive (a bootstrap
// replicate, a k-NN query batch) should pass a small grain so the chunk
// count exceeds the thread count and the pool can load-balance. Chunk
// geometry never affects results — callers only perform slot-disjoint
// writes — so the grain is a pure performance knob.
inline constexpr std::size_t kDefaultGrain = 256;
void parallel_for_chunked(std::size_t n,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          std::size_t min_grain = kDefaultGrain);

// --- Deterministic reductions ---------------------------------------------
//
// Partial results are computed per fixed-size chunk (kReduceChunk) and
// combined in chunk order, so the value depends only on the input. For
// inputs of at most one chunk they degenerate to the plain serial fold.

// Mean-only Welford state mirroring stats::Accumulator's add/merge
// arithmetic exactly (dre_par cannot depend on dre_stats: dre_stats links
// against this library). Public because the out-of-core evaluation path
// (core/streaming.cpp) reproduces chunked_mean by folding the same states
// over chunks it never holds simultaneously — sharing the arithmetic here
// is what makes the two paths bit-identical.
struct MeanState {
    std::size_t n = 0;
    double mean = 0.0;

    void add(double x) noexcept {
        ++n;
        mean += (x - mean) / static_cast<double>(n);
    }
    void merge(const MeanState& other) noexcept {
        if (other.n == 0) return;
        if (n == 0) {
            *this = other;
            return;
        }
        const auto total = static_cast<double>(n + other.n);
        mean = (mean * static_cast<double>(n) +
                other.mean * static_cast<double>(other.n)) /
               total;
        n += other.n;
    }
};

// Ordered chunk-wise sum (left fold within chunks, chunk partials combined
// left to right).
double chunked_sum(std::span<const double> xs);

// Ordered chunk-wise mean using Welford updates within chunks and pairwise
// combination across chunks; identical to stats::mean for
// xs.size() <= kReduceChunk. Requires a non-empty input.
double chunked_mean(std::span<const double> xs);

} // namespace dre::par

#endif // DRE_CORE_PARALLEL_H
