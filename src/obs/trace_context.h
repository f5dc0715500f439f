// Request-scoped trace identity for `dre::obs` (DESIGN.md §13).
//
// A TraceContext names the request a piece of work belongs to. The serve
// dispatcher installs one (client-supplied or server-generated) before it
// runs an evaluation; every span the evaluation opens — including spans on
// dre::par pool workers, which inherit the submitter's context — records
// the trace_id alongside its timing, so one request's span tree can be
// filtered out of a whole process's chrome://tracing export.
//
// The context is plain data with thread-local storage. trace_id 0 means
// "untraced".
#ifndef DRE_OBS_TRACE_CONTEXT_H
#define DRE_OBS_TRACE_CONTEXT_H

#include <cstdint>

namespace dre::obs {

struct TraceContext {
    std::uint64_t trace_id = 0; // 0 = untraced
};

// The calling thread's current context ({0} when none is installed).
TraceContext current_trace_context() noexcept;

// A process-unique, non-zero trace id (an atomic counter through a
// splitmix64 finalizer, so ids look random but never collide or repeat).
std::uint64_t next_trace_id() noexcept;

// Installs `ctx` as the calling thread's context for the enclosing scope
// and restores the previous one on destruction. Scopes nest; pool workers
// use this to adopt the submitting thread's context for one batch.
class ScopedTraceContext {
public:
    explicit ScopedTraceContext(TraceContext ctx) noexcept;
    ~ScopedTraceContext();
    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

private:
    TraceContext previous_;
};

} // namespace dre::obs

#endif // DRE_OBS_TRACE_CONTEXT_H
