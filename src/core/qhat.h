// Shared prediction matrix q̂[tuple × decision] (the DM/DR hot path).
//
// Every model-based estimator (DM, DR, clipped/SWITCH/SN-DR) evaluates the
// reward model at the same (context, decision) pairs: each trace tuple ×
// each decision. Running the estimator suite — and especially bootstrap
// replicates over it — therefore re-queries the model with identical
// arguments many times over. PredictionMatrix precomputes the full matrix
// once per (model, trace) pair so every later consumer is a cache lookup.
//
// The matrix stores the model's outputs verbatim, and the matrix-based
// estimator overloads consume them in the same order with the same
// arithmetic as the direct model path — results are bit-identical, only
// faster.
#ifndef DRE_CORE_QHAT_H
#define DRE_CORE_QHAT_H

#include <cstddef>
#include <vector>

#include "core/reward_model.h"
#include "trace/trace.h"

namespace dre::core {

class PredictionMatrix {
public:
    PredictionMatrix() = default;

    // Fill q̂[k][d] = model.predict(trace[k].context, d) for every tuple k
    // and decision d. Tuples are filled concurrently (dre::par); each slot
    // is written exactly once by a pure function of (model, tuple, d), so
    // the matrix is identical for any thread count.
    static PredictionMatrix build(const RewardModel& model, const Trace& trace);

    // Row view: q̂[tuple][0..num_decisions).
    const double* row(std::size_t tuple) const noexcept {
        return values_.data() + tuple * num_decisions_;
    }

    std::size_t num_tuples() const noexcept { return num_tuples_; }
    std::size_t num_decisions() const noexcept { return num_decisions_; }

private:
    std::size_t num_tuples_ = 0;
    std::size_t num_decisions_ = 0;
    std::vector<double> values_; // row-major [tuple][decision]
};

} // namespace dre::core

#endif // DRE_CORE_QHAT_H
