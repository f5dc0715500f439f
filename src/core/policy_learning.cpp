#include "core/policy_learning.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

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

std::shared_ptr<Policy> parse_policy_spec(const std::string& spec,
                                          const Trace& trace,
                                          std::size_t decisions) {
    if (spec == "uniform")
        return std::make_shared<UniformRandomPolicy>(decisions);
    if (spec.rfind("constant:", 0) == 0) {
        const auto d = static_cast<Decision>(std::stol(spec.substr(9)));
        if (d < 0 || static_cast<std::size_t>(d) >= decisions)
            throw std::invalid_argument("constant decision outside trace's space");
        return std::make_shared<DeterministicPolicy>(
            decisions, [d](const ClientContext&) { return d; });
    }
    if (spec.rfind("greedy:", 0) == 0) {
        // "greedy:<model>" or "greedy:<model>:<epsilon>" — the optional
        // epsilon uniform-smooths the learned policy so it stays evaluable
        // when redeployed as a logging policy (the §4.1 shape).
        const std::string rest = spec.substr(7);
        const std::size_t colon = rest.find(':');
        if (colon == std::string::npos) {
            const RewardModelKind kind = parse_reward_model_kind(rest);
            return learn_greedy_policy(trace, kind, decisions);
        }
        const RewardModelKind kind =
            parse_reward_model_kind(rest.substr(0, colon));
        const std::string eps_text = rest.substr(colon + 1);
        double epsilon = 0.0;
        const auto [end, ec] = std::from_chars(
            eps_text.data(), eps_text.data() + eps_text.size(), epsilon);
        if (ec != std::errc() || end != eps_text.data() + eps_text.size())
            throw std::invalid_argument("malformed epsilon in policy spec \"" +
                                        spec + "\": expected a number, got \"" +
                                        eps_text + "\"");
        if (!(epsilon >= 0.0 && epsilon <= 1.0))
            throw std::invalid_argument("epsilon in policy spec \"" + spec +
                                        "\" outside [0,1]");
        return learn_greedy_policy(trace, kind, decisions, epsilon);
    }
    throw std::invalid_argument("unknown policy spec: " + spec);
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
