// Trace container and utilities.
#ifndef DRE_TRACE_TRACE_H
#define DRE_TRACE_TRACE_H

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "stats/rng.h"
#include "trace/types.h"

namespace dre {

// Ordered collection of logged tuples. Order matters: the paper's
// non-stationary extension (§4.2) replays the trace "for the same clients in
// the same sequence".
class Trace {
public:
    Trace() = default;
    explicit Trace(std::vector<LoggedTuple> tuples) : tuples_(std::move(tuples)) {}

    void add(LoggedTuple tuple) { tuples_.push_back(std::move(tuple)); }
    void reserve(std::size_t n) { tuples_.reserve(n); }

    std::size_t size() const noexcept { return tuples_.size(); }
    bool empty() const noexcept { return tuples_.empty(); }
    const LoggedTuple& operator[](std::size_t i) const { return tuples_[i]; }
    LoggedTuple& operator[](std::size_t i) { return tuples_[i]; }
    const LoggedTuple& at(std::size_t i) const { return tuples_.at(i); }

    auto begin() const noexcept { return tuples_.begin(); }
    auto end() const noexcept { return tuples_.end(); }
    auto begin() noexcept { return tuples_.begin(); }
    auto end() noexcept { return tuples_.end(); }
    std::span<const LoggedTuple> tuples() const noexcept { return tuples_; }

    // Largest decision id present plus one (0 for an empty trace).
    std::size_t num_decisions() const noexcept;

    // All rewards / propensities as flat vectors (for summaries).
    std::vector<double> rewards() const;
    std::vector<double> propensities() const;

    // Tuples satisfying a predicate.
    Trace filtered(const std::function<bool(const LoggedTuple&)>& keep) const;

    // Tuples whose state label equals `state`.
    Trace with_state(std::int32_t state) const;

    // Random split into (train, holdout); `train_fraction` in (0, 1).
    std::pair<Trace, Trace> split(double train_fraction, stats::Rng& rng) const;

    // Bootstrap resample of the same size.
    Trace resampled(stats::Rng& rng) const;

private:
    std::vector<LoggedTuple> tuples_;
};

// Sanity checks used by the estimators: throws std::invalid_argument when a
// tuple has a non-finite reward, a propensity outside (0, 1], or a negative
// decision id.
void validate_trace(std::span<const LoggedTuple> tuples);
inline void validate_trace(const Trace& trace) {
    validate_trace(trace.tuples());
}

} // namespace dre

#endif // DRE_TRACE_TRACE_H
