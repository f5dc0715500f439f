#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dre {

std::size_t Trace::num_decisions() const noexcept {
    Decision max_decision = -1;
    for (const auto& t : tuples_) max_decision = std::max(max_decision, t.decision);
    return static_cast<std::size_t>(max_decision + 1);
}

std::vector<double> Trace::rewards() const {
    std::vector<double> out;
    out.reserve(tuples_.size());
    for (const auto& t : tuples_) out.push_back(t.reward);
    return out;
}

std::vector<double> Trace::propensities() const {
    std::vector<double> out;
    out.reserve(tuples_.size());
    for (const auto& t : tuples_) out.push_back(t.propensity);
    return out;
}

Trace Trace::filtered(const std::function<bool(const LoggedTuple&)>& keep) const {
    Trace out;
    for (const auto& t : tuples_)
        if (keep(t)) out.add(t);
    return out;
}

Trace Trace::with_state(std::int32_t state) const {
    return filtered([state](const LoggedTuple& t) { return t.state == state; });
}

std::pair<Trace, Trace> Trace::split(double train_fraction, stats::Rng& rng) const {
    if (train_fraction <= 0.0 || train_fraction >= 1.0)
        throw std::invalid_argument("Trace::split: fraction outside (0,1)");
    Trace train, holdout;
    for (const auto& t : tuples_) {
        if (rng.bernoulli(train_fraction)) {
            train.add(t);
        } else {
            holdout.add(t);
        }
    }
    return {std::move(train), std::move(holdout)};
}

Trace Trace::resampled(stats::Rng& rng) const {
    Trace out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.add(tuples_[rng.uniform_index(size())]);
    return out;
}

void validate_trace(std::span<const LoggedTuple> tuples) {
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        const LoggedTuple& t = tuples[i];
        if (!std::isfinite(t.reward))
            throw std::invalid_argument("trace tuple " + std::to_string(i) +
                                        ": non-finite reward");
        if (!(t.propensity > 0.0) || t.propensity > 1.0)
            throw std::invalid_argument("trace tuple " + std::to_string(i) +
                                        ": propensity outside (0,1]");
        if (t.decision < 0)
            throw std::invalid_argument("trace tuple " + std::to_string(i) +
                                        ": negative decision id");
    }
}

} // namespace dre
