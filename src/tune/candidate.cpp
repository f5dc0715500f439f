#include "tune/candidate.h"

#include <charconv>
#include <stdexcept>

namespace dre::tune {

namespace {

const char* model_name(core::RewardModelKind kind) {
    switch (kind) {
        case core::RewardModelKind::kTabular: return "tabular";
        case core::RewardModelKind::kLinear: return "linear";
        case core::RewardModelKind::kKnn: return "knn";
    }
    return "unknown";
}

// Shortest round-trip decimal rendering, so spec() is canonical (equal
// doubles -> equal bytes).
std::string format_double(double v) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        throw std::invalid_argument("candidate parameter is not renderable");
    return std::string(buf, ptr);
}

} // namespace

std::string PolicyCandidate::spec() const {
    switch (kind) {
        case CandidateKind::kGreedy:
            if (epsilon == 0.0)
                return std::string("greedy:") + model_name(model);
            return std::string("greedy:") + model_name(model) + ":" +
                   format_double(epsilon);
        case CandidateKind::kSoftmax:
            return std::string("softmax:") + model_name(model) + ":" +
                   format_double(temperature);
        case CandidateKind::kConstant:
            return "constant:" + std::to_string(static_cast<long>(arm));
        case CandidateKind::kMixture:
            return std::string("mix:") + model_name(model) + ":" +
                   std::to_string(static_cast<long>(arm)) + ":" +
                   format_double(mixture_weight);
    }
    throw std::invalid_argument("candidate has an unknown kind");
}

FittedModels fit_candidate_models(const std::vector<PolicyCandidate>& candidates,
                                  const Trace& trace, std::size_t decisions) {
    FittedModels models;
    for (const PolicyCandidate& c : candidates) {
        if (c.kind == CandidateKind::kConstant) continue;
        if (models.count(c.model) != 0) continue;
        models.emplace(c.model,
                       std::shared_ptr<const core::RewardModel>(
                           core::fit_reward_model(c.model, decisions, trace)));
    }
    return models;
}

std::shared_ptr<core::Policy> materialize(const PolicyCandidate& candidate,
                                          const FittedModels& models,
                                          std::size_t decisions) {
    const auto fitted = [&]() -> std::shared_ptr<const core::RewardModel> {
        const auto it = models.find(candidate.model);
        if (it == models.end())
            throw std::invalid_argument(
                "materialize: no fitted model for candidate " +
                candidate.spec());
        return it->second;
    };
    const auto check_arm = [&] {
        if (candidate.arm < 0 ||
            static_cast<std::size_t>(candidate.arm) >= decisions)
            throw std::invalid_argument("materialize: arm outside decision "
                                        "space in candidate " +
                                        candidate.spec());
    };
    switch (candidate.kind) {
        case CandidateKind::kGreedy:
            return std::make_shared<core::GreedyModelPolicy>(fitted(),
                                                             candidate.epsilon);
        case CandidateKind::kSoftmax: {
            if (!(candidate.temperature > 0.0))
                throw std::invalid_argument(
                    "materialize: softmax temperature must be > 0");
            // The scorer shares ownership of the fitted model, so the
            // policy stays valid after the FittedModels map is dropped.
            std::shared_ptr<const core::RewardModel> model = fitted();
            return std::make_shared<core::SoftmaxPolicy>(
                decisions,
                [model](const ClientContext& context, Decision d) {
                    return model->predict(context, d);
                },
                candidate.temperature);
        }
        case CandidateKind::kConstant: {
            check_arm();
            const Decision arm = candidate.arm;
            return std::make_shared<core::DeterministicPolicy>(
                decisions, [arm](const ClientContext&) { return arm; });
        }
        case CandidateKind::kMixture: {
            check_arm();
            if (!(candidate.mixture_weight >= 0.0 &&
                  candidate.mixture_weight <= 1.0))
                throw std::invalid_argument(
                    "materialize: mixture weight outside [0,1]");
            const Decision arm = candidate.arm;
            auto greedy =
                std::make_shared<core::GreedyModelPolicy>(fitted(), 0.0);
            auto pinned = std::make_shared<core::DeterministicPolicy>(
                decisions, [arm](const ClientContext&) { return arm; });
            return std::make_shared<core::MixturePolicy>(
                std::move(greedy), std::move(pinned),
                candidate.mixture_weight);
        }
    }
    throw std::invalid_argument("materialize: unknown candidate kind");
}

std::shared_ptr<core::Policy> materialize(const PolicyCandidate& candidate,
                                          const Trace& trace,
                                          std::size_t decisions) {
    return materialize(candidate, fit_candidate_models({candidate}, trace,
                                                       decisions),
                       decisions);
}

std::vector<PolicyCandidate> enumerate(const CandidateSpace& space) {
    if (space.num_decisions == 0)
        throw std::invalid_argument("CandidateSpace needs num_decisions > 0");
    std::vector<PolicyCandidate> out;
    for (const core::RewardModelKind model : space.models) {
        for (const double epsilon : space.epsilons) {
            if (!(epsilon >= 0.0 && epsilon <= 1.0))
                throw std::invalid_argument(
                    "CandidateSpace epsilon outside [0,1]");
            PolicyCandidate c;
            c.kind = CandidateKind::kGreedy;
            c.model = model;
            c.epsilon = epsilon;
            out.push_back(c);
        }
    }
    for (const core::RewardModelKind model : space.models) {
        for (const double temperature : space.temperatures) {
            if (!(temperature > 0.0))
                throw std::invalid_argument(
                    "CandidateSpace temperature must be > 0");
            PolicyCandidate c;
            c.kind = CandidateKind::kSoftmax;
            c.model = model;
            c.temperature = temperature;
            out.push_back(c);
        }
    }
    if (space.include_constants) {
        for (std::size_t d = 0; d < space.num_decisions; ++d) {
            PolicyCandidate c;
            c.kind = CandidateKind::kConstant;
            c.arm = static_cast<Decision>(d);
            out.push_back(c);
        }
    }
    for (const core::RewardModelKind model : space.models) {
        for (const double weight : space.mixture_weights) {
            if (!(weight >= 0.0 && weight <= 1.0))
                throw std::invalid_argument(
                    "CandidateSpace mixture weight outside [0,1]");
            PolicyCandidate c;
            c.kind = CandidateKind::kMixture;
            c.model = model;
            c.arm = space.mixture_arm;
            c.mixture_weight = weight;
            out.push_back(c);
        }
    }
    return out;
}

} // namespace dre::tune
