#include "core/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace dre::par {
namespace {

thread_local bool tls_in_parallel_region = false;

// RAII flag so nested parallel_for calls from inside a task inline safely
// even when the task throws.
struct RegionGuard {
    bool previous;
    RegionGuard() : previous(tls_in_parallel_region) {
        tls_in_parallel_region = true;
    }
    ~RegionGuard() { tls_in_parallel_region = previous; }
};

std::size_t hardware_default() { return available_cpus(); }

std::size_t env_thread_count() {
    const char* env = std::getenv("DRE_THREADS");
    if (env == nullptr || *env == '\0') return hardware_default();
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0)
        throw std::invalid_argument(std::string("DRE_THREADS is not a ") +
                                    "non-negative integer: " + env);
    return parsed == 0 ? hardware_default() : static_cast<std::size_t>(parsed);
}

struct GlobalPool {
    std::mutex mutex;
    std::unique_ptr<ThreadPool> pool;

    ThreadPool& get() {
        std::lock_guard<std::mutex> lock(mutex);
        if (!pool) pool = std::make_unique<ThreadPool>(env_thread_count());
        return *pool;
    }

    void resize(std::size_t n) {
        std::lock_guard<std::mutex> lock(mutex);
        const std::size_t want = n == 0 ? env_thread_count() : n;
        if (pool && pool->thread_count() == want) return;
        pool = std::make_unique<ThreadPool>(want);
    }
};

GlobalPool& global_state() {
    static GlobalPool state; // never destroyed before exit-time user code
    return state;
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain(Batch& batch) {
    RegionGuard guard;
    // Accumulated locally and flushed once per drain: tasks can be
    // microseconds-scale, so even a sharded atomic per task would show up.
    std::uint64_t tasks = 0;
    for (;;) {
        const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.size) break;
        ++tasks;
        try {
            (*batch.fn)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        if (batch.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            batch.size) {
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
    if (tasks != 0) DRE_COUNTER_ADD("par.tasks_run", tasks);
}

void ThreadPool::worker_loop() {
    std::uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const std::uint64_t idle_start_ns = obs::now_ns();
        wake_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        DRE_HIST_RECORD("par.worker_idle_ns", obs::now_ns() - idle_start_ns);
        if (stop_) return;
        seen_epoch = epoch_;
        // Pin the batch while draining it. A worker scheduled so late that
        // run() already returned sees either a null batch_ or an exhausted
        // batch (its `next` counter is never reset), both of which are
        // no-ops — it can never claim an index against a recycled batch.
        const std::shared_ptr<Batch> batch = batch_;
        if (batch == nullptr) continue; // batch already drained and cleared
        lock.unlock();
        {
            obs::ScopedTraceContext trace_scope(batch->trace_ctx);
            drain(*batch);
        }
        lock.lock();
    }
}

void ThreadPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    // Serial paths: a pool of one, a nested call from inside a task, or a
    // single item. Exceptions propagate directly.
    if (workers_.empty() || tls_in_parallel_region || n == 1) {
        RegionGuard guard;
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    const auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->size = n;
    batch->trace_ctx = obs::current_trace_context();
    // Batch geometry diagnostics. Chunk counts depend on the thread count,
    // so these must never feed the determinism fingerprint.
    DRE_COUNTER_INC("par.batches");
    DRE_HIST_RECORD("par.batch_items", n);
    DRE_GAUGE_SET("par.pool_threads", static_cast<double>(thread_count()));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        batch_ = batch;
        first_error_ = nullptr;
        ++epoch_;
    }
    // Wake only as many workers as there are items beyond the submitting
    // thread's share: waking the whole pool for a 4-item batch costs a
    // wake/sleep cycle per idle worker and can dominate small batches.
    const std::size_t to_wake = std::min(workers_.size(), n - 1);
    if (to_wake == workers_.size()) {
        wake_.notify_all();
    } else {
        for (std::size_t i = 0; i < to_wake; ++i) wake_.notify_one();
    }
    drain(*batch); // the submitting thread participates
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
        return batch->completed.load(std::memory_order_acquire) == n;
    });
    if (batch_ == batch) batch_ = nullptr;
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    if (error) std::rethrow_exception(error);
}

std::size_t available_cpus() {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int count = CPU_COUNT(&set);
        if (count > 0) return static_cast<std::size_t>(count);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t thread_count() { return global_state().get().thread_count(); }

void set_thread_count(std::size_t n) {
    if (tls_in_parallel_region)
        throw std::logic_error("par::set_thread_count inside a parallel region");
    global_state().resize(n);
}

ThreadPool& global_pool() { return global_state().get(); }

bool in_parallel_region() noexcept { return tls_in_parallel_region; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    global_pool().run(n, fn);
}

void parallel_for_chunked(std::size_t n,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          std::size_t min_grain) {
    if (n == 0) return;
    if (min_grain == 0) min_grain = 1;
    ThreadPool& pool = global_pool();
    const std::size_t threads = pool.thread_count();
    // Serial when the pool is serial, when nested, or when the range is too
    // small to amortize a batch dispatch (one wake/sleep cycle per worker).
    if (threads == 1 || in_parallel_region() || n <= min_grain) {
        RegionGuard guard;
        fn(0, n);
        return;
    }
    // ~4 chunks per thread for load balancing; grain >= min_grain keeps
    // dispatch overhead negligible relative to per-item cost.
    const std::size_t grain = std::max(min_grain, n / (threads * 4));
    const std::size_t chunks = (n + grain - 1) / grain;
    pool.run(chunks, [&](std::size_t c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(begin + grain, n);
        fn(begin, end);
    });
}

namespace {

template <typename Partial, typename PerChunk>
std::vector<Partial> chunk_partials(std::size_t n, const PerChunk& per_chunk) {
    const std::size_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
    std::vector<Partial> partials(chunks);
    parallel_for(chunks, [&](std::size_t c) {
        const std::size_t begin = c * kReduceChunk;
        const std::size_t end = std::min(begin + kReduceChunk, n);
        partials[c] = per_chunk(begin, end);
    });
    return partials;
}

} // namespace

double chunked_sum(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    if (xs.size() <= kReduceChunk) {
        double sum = 0.0;
        for (double x : xs) sum += x;
        return sum;
    }
    const std::vector<double> partials =
        chunk_partials<double>(xs.size(), [&](std::size_t begin, std::size_t end) {
            double sum = 0.0;
            for (std::size_t i = begin; i < end; ++i) sum += xs[i];
            return sum;
        });
    double total = 0.0;
    for (double partial : partials) total += partial;
    return total;
}

double chunked_mean(std::span<const double> xs) {
    if (xs.empty()) throw std::invalid_argument("chunked_mean: empty sample");
    if (xs.size() <= kReduceChunk) {
        MeanState state;
        for (double x : xs) state.add(x);
        return state.mean;
    }
    const std::vector<MeanState> partials = chunk_partials<MeanState>(
        xs.size(), [&](std::size_t begin, std::size_t end) {
            MeanState state;
            for (std::size_t i = begin; i < end; ++i) state.add(xs[i]);
            return state;
        });
    MeanState total;
    for (const MeanState& partial : partials) total.merge(partial);
    return total.mean;
}

} // namespace dre::par
