#include "core/policy_learning.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "stats/bootstrap.h"

namespace dre::core {

GreedyModelPolicy::GreedyModelPolicy(std::shared_ptr<const RewardModel> model,
                                     double epsilon)
    : model_(std::move(model)), epsilon_(epsilon) {
    if (!model_) throw std::invalid_argument("GreedyModelPolicy: null model");
    if (epsilon_ < 0.0 || epsilon_ > 1.0)
        throw std::invalid_argument("GreedyModelPolicy: epsilon outside [0,1]");
}

Decision GreedyModelPolicy::argmax_row(const ClientContext& context,
                                       std::vector<double>& row) const {
    row.resize(model_->num_decisions());
    model_->predict_row(context, row.data());
    std::size_t best = 0;
    for (std::size_t d = 1; d < row.size(); ++d)
        if (row[d] > row[best]) best = d;
    return static_cast<Decision>(best);
}

std::vector<double> GreedyModelPolicy::action_probabilities(
    const ClientContext& context) const {
    std::vector<double> probs;
    action_probabilities_into(context, probs);
    return probs;
}

void GreedyModelPolicy::action_probabilities_into(const ClientContext& context,
                                                  std::vector<double>& out) const {
    const auto best = static_cast<std::size_t>(argmax_row(context, out));
    std::fill(out.begin(), out.end(),
              epsilon_ / static_cast<double>(out.size()));
    out[best] += 1.0 - epsilon_;
}

std::shared_ptr<GreedyModelPolicy> learn_greedy_policy(const Trace& trace,
                                                       RewardModelKind kind,
                                                       std::size_t num_decisions,
                                                       double epsilon) {
    std::shared_ptr<const RewardModel> model =
        fit_reward_model(kind, num_decisions, trace);
    return std::make_shared<GreedyModelPolicy>(std::move(model), epsilon);
}

RewardModelKind parse_reward_model_kind(const std::string& name) {
    if (name == "tabular") return RewardModelKind::kTabular;
    if (name == "linear") return RewardModelKind::kLinear;
    if (name == "knn") return RewardModelKind::kKnn;
    throw std::invalid_argument("unknown model kind: " + name);
}

const char* to_string(RewardModelKind kind) noexcept {
    switch (kind) {
        case RewardModelKind::kTabular: return "tabular";
        case RewardModelKind::kLinear: return "linear";
        case RewardModelKind::kKnn: return "knn";
    }
    return "unknown";
}

PolicySpec parse_policy_spec(std::string_view text) {
    std::vector<std::string_view> fields;
    for (std::size_t start = 0;;) {
        const std::size_t colon = text.find(':', start);
        fields.push_back(text.substr(start, colon - start));
        if (colon == std::string_view::npos) break;
        start = colon + 1;
    }
    const auto fail = [&](const std::string& why) {
        return std::invalid_argument("policy spec \"" + std::string(text) +
                                     "\": " + why);
    };
    // One whole field as a T, or the named failure.
    const auto read = [&]<typename T>(std::string_view field, const char* name,
                                      T value) {
        const char* end = field.data() + field.size();
        const auto [stop, ec] = std::from_chars(field.data(), end, value);
        if (ec != std::errc() || stop != end)
            throw fail(std::string(name) + " \"" + std::string(field) +
                       (std::is_integral_v<T> ? "\" is not a decision id"
                                              : "\" is not a number"));
        return value;
    };
    // A finite number: in [0, 1] when `unit`, else above 0.
    const auto parameter = [&](std::string_view field, const char* name,
                               bool unit) {
        const double value = read(field, name, 0.0);
        if (!std::isfinite(value) ||
            (unit ? !(value >= 0.0 && value <= 1.0) : !(value > 0.0)))
            throw fail(std::string(name) + " " + std::string(field) +
                       (unit ? " must be a finite number in [0,1]"
                             : " must be a finite number > 0"));
        return value;
    };
    const auto model = [&](std::string_view field) {
        try {
            return parse_reward_model_kind(std::string(field));
        } catch (const std::invalid_argument& e) {
            throw fail(e.what());
        }
    };

    using Kind = PolicySpec::Kind;
    const std::string_view family = fields[0];
    const std::size_t n = fields.size();
    PolicySpec spec;
    if (family == "uniform" && n == 1) {
        spec.kind = Kind::kUniform;
    } else if (family == "constant" && n == 2) {
        spec.kind = Kind::kConstant;
        spec.arm = read(fields[1], "arm", Decision{0});
    } else if (family == "greedy" && (n == 2 || n == 3)) {
        spec.kind = Kind::kGreedy;
        spec.model = model(fields[1]);
        if (n == 3) spec.epsilon = parameter(fields[2], "epsilon", true);
    } else if (family == "softmax" && n == 3) {
        spec.kind = Kind::kSoftmax;
        spec.model = model(fields[1]);
        spec.temperature = parameter(fields[2], "temperature", false);
    } else if (family == "mix" && n == 4) {
        spec.kind = Kind::kMixture;
        spec.model = model(fields[1]);
        spec.arm = read(fields[2], "arm", Decision{0});
        spec.mixture_weight = parameter(fields[3], "weight", true);
    } else {
        throw std::invalid_argument(
            "unknown policy spec \"" + std::string(text) +
            "\" (expected uniform, constant:<d>, greedy:<model>[:<e>], "
            "softmax:<model>:<T> or mix:<model>:<d>:<w>)");
    }
    return spec;
}

namespace {

// Shortest round-trip decimal, so equal doubles render equal bytes.
std::string format_double(double v) {
    char buf[32]; // the longest shortest-round-trip double takes 24
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

} // namespace

std::string to_string(const PolicySpec& spec) {
    const std::string model = to_string(spec.model);
    switch (spec.kind) {
        case PolicySpec::Kind::kUniform: return "uniform";
        case PolicySpec::Kind::kConstant:
            return "constant:" + std::to_string(spec.arm);
        case PolicySpec::Kind::kGreedy:
            if (spec.epsilon == 0.0) return "greedy:" + model;
            return "greedy:" + model + ":" + format_double(spec.epsilon);
        case PolicySpec::Kind::kSoftmax:
            return "softmax:" + model + ":" + format_double(spec.temperature);
        case PolicySpec::Kind::kMixture:
            return "mix:" + model + ":" + std::to_string(spec.arm) + ":" +
                   format_double(spec.mixture_weight);
    }
    throw std::invalid_argument("policy spec has an unknown kind");
}

ModelFits::ModelFits(const Trace& trace, std::size_t decisions)
    : trace_(trace), decisions_(decisions) {}

std::shared_ptr<const RewardModel> ModelFits::model(RewardModelKind kind) {
    std::shared_ptr<const RewardModel>& fit = models_[kind];
    if (!fit) fit = fit_reward_model(kind, decisions_, trace_);
    return fit;
}

std::shared_ptr<Policy> ModelFits::build(const PolicySpec& spec) {
    const auto pinned = [&] {
        if (spec.arm < 0 || static_cast<std::size_t>(spec.arm) >= decisions_)
            throw std::invalid_argument(
                "policy spec \"" + to_string(spec) + "\": arm " +
                std::to_string(spec.arm) + " is outside [0, " +
                std::to_string(decisions_) + ")");
        const Decision arm = spec.arm;
        return std::make_shared<DeterministicPolicy>(
            decisions_, [arm](const ClientContext&) { return arm; });
    };
    switch (spec.kind) {
        case PolicySpec::Kind::kUniform:
            return std::make_shared<UniformRandomPolicy>(decisions_);
        case PolicySpec::Kind::kConstant: return pinned();
        case PolicySpec::Kind::kGreedy:
            return std::make_shared<GreedyModelPolicy>(model(spec.model),
                                                       spec.epsilon);
        case PolicySpec::Kind::kSoftmax: {
            // The scorer shares ownership of the fitted model, so the
            // policy outlives this object.
            std::shared_ptr<const RewardModel> fitted = model(spec.model);
            return std::make_shared<SoftmaxPolicy>(
                decisions_,
                [fitted](const ClientContext& context, Decision d) {
                    return fitted->predict(context, d);
                },
                spec.temperature);
        }
        case PolicySpec::Kind::kMixture: {
            std::shared_ptr<DeterministicPolicy> pin = pinned();
            return std::make_shared<MixturePolicy>(
                std::make_shared<GreedyModelPolicy>(model(spec.model)),
                std::move(pin), spec.mixture_weight);
        }
    }
    throw std::invalid_argument("policy spec has an unknown kind");
}

std::shared_ptr<Policy> parse_policy_spec(const std::string& spec,
                                          const Trace& trace,
                                          std::size_t decisions) {
    return ModelFits(trace, decisions).build(parse_policy_spec(spec));
}

ImprovementReport certify_improvement(const Trace& trace, const Policy& incumbent,
                                      const Policy& candidate,
                                      const PredictionMatrix& qhat,
                                      stats::Rng& rng, int bootstrap_replicates,
                                      double level) {
    const EstimateResult incumbent_dr = doubly_robust(trace, incumbent, qhat);
    const EstimateResult candidate_dr = doubly_robust(trace, candidate, qhat);

    ImprovementReport report;
    report.incumbent_value = incumbent_dr.value;
    report.candidate_value = candidate_dr.value;
    report.estimated_lift = candidate_dr.value - incumbent_dr.value;

    // Paired per-tuple differences: the two DR runs share the same clients
    // and rewards, so common noise cancels in the difference.
    std::vector<double> lift(trace.size());
    for (std::size_t k = 0; k < trace.size(); ++k)
        lift[k] = candidate_dr.per_tuple[k] - incumbent_dr.per_tuple[k];
    report.lift_ci = stats::chunked_bootstrap_mean_ci(
        lift, report.estimated_lift, rng, bootstrap_replicates, level);
    report.certified = report.lift_ci.lower > 0.0;
    return report;
}

} // namespace dre::core
