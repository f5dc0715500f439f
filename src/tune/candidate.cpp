#include "tune/candidate.h"

#include <stdexcept>

namespace dre::tune {

std::vector<core::PolicySpec> enumerate(const CandidateSpace& space) {
    if (space.num_decisions == 0)
        throw std::invalid_argument("CandidateSpace needs num_decisions > 0");
    using Kind = core::PolicySpec::Kind;
    std::vector<core::PolicySpec> out;
    for (const core::RewardModelKind model : space.models) {
        for (const double epsilon : space.epsilons) {
            if (!(epsilon >= 0.0 && epsilon <= 1.0))
                throw std::invalid_argument(
                    "CandidateSpace epsilon outside [0,1]");
            out.push_back(
                {.kind = Kind::kGreedy, .model = model, .epsilon = epsilon});
        }
    }
    for (const core::RewardModelKind model : space.models) {
        for (const double temperature : space.temperatures) {
            if (!(temperature > 0.0))
                throw std::invalid_argument(
                    "CandidateSpace temperature must be > 0");
            out.push_back({.kind = Kind::kSoftmax,
                           .model = model,
                           .temperature = temperature});
        }
    }
    if (space.include_constants) {
        for (std::size_t d = 0; d < space.num_decisions; ++d)
            out.push_back(
                {.kind = Kind::kConstant, .arm = static_cast<Decision>(d)});
    }
    for (const core::RewardModelKind model : space.models) {
        for (const double weight : space.mixture_weights) {
            if (!(weight >= 0.0 && weight <= 1.0))
                throw std::invalid_argument(
                    "CandidateSpace mixture weight outside [0,1]");
            out.push_back({.kind = Kind::kMixture,
                           .model = model,
                           .arm = space.mixture_arm,
                           .mixture_weight = weight});
        }
    }
    return out;
}

} // namespace dre::tune
