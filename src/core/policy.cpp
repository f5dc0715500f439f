#include "core/policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dre::core {

void validate_distribution(std::span<const double> distribution,
                           std::size_t expected_size) {
    if (distribution.size() != expected_size)
        throw std::invalid_argument("distribution has size " +
                                    std::to_string(distribution.size()) +
                                    ", expected " + std::to_string(expected_size));
    double total = 0.0;
    for (double p : distribution) {
        if (!std::isfinite(p) || p < 0.0)
            throw std::invalid_argument("distribution entry negative or non-finite");
        total += p;
    }
    if (std::fabs(total - 1.0) > 1e-6)
        throw std::invalid_argument("distribution sums to " + std::to_string(total));
}

double Policy::probability(const ClientContext& context, Decision d) const {
    const std::vector<double> probs = action_probabilities(context);
    if (d < 0 || static_cast<std::size_t>(d) >= probs.size())
        throw std::out_of_range("Policy::probability: decision out of range");
    return probs[static_cast<std::size_t>(d)];
}

Decision Policy::sample(const ClientContext& context, stats::Rng& rng) const {
    const std::vector<double> probs = action_probabilities(context);
    return static_cast<Decision>(rng.categorical(probs));
}

DeterministicPolicy::DeterministicPolicy(std::size_t num_decisions, Chooser chooser)
    : num_decisions_(num_decisions), chooser_(std::move(chooser)) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("DeterministicPolicy: empty decision space");
    if (!chooser_) throw std::invalid_argument("DeterministicPolicy: null chooser");
}

Decision DeterministicPolicy::checked_choice(const ClientContext& context) const {
    const Decision d = chooser_(context);
    if (d < 0 || static_cast<std::size_t>(d) >= num_decisions_)
        throw std::out_of_range("DeterministicPolicy: chooser returned invalid decision");
    return d;
}

std::vector<double> DeterministicPolicy::action_probabilities(
    const ClientContext& context) const {
    std::vector<double> probs(num_decisions_, 0.0);
    probs[static_cast<std::size_t>(checked_choice(context))] = 1.0;
    return probs;
}

void DeterministicPolicy::action_probabilities_into(
    const ClientContext& context, std::vector<double>& out) const {
    out.assign(num_decisions_, 0.0);
    out[static_cast<std::size_t>(checked_choice(context))] = 1.0;
}

double DeterministicPolicy::probability(const ClientContext& context, Decision d) const {
    if (d < 0 || static_cast<std::size_t>(d) >= num_decisions_)
        throw std::out_of_range("DeterministicPolicy::probability: decision out of range");
    return checked_choice(context) == d ? 1.0 : 0.0;
}

UniformRandomPolicy::UniformRandomPolicy(std::size_t num_decisions)
    : num_decisions_(num_decisions) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("UniformRandomPolicy: empty decision space");
}

std::vector<double> UniformRandomPolicy::action_probabilities(
    const ClientContext&) const {
    return std::vector<double>(num_decisions_, 1.0 / static_cast<double>(num_decisions_));
}

void UniformRandomPolicy::action_probabilities_into(
    const ClientContext&, std::vector<double>& out) const {
    out.assign(num_decisions_, 1.0 / static_cast<double>(num_decisions_));
}

double UniformRandomPolicy::probability(const ClientContext&, Decision d) const {
    if (d < 0 || static_cast<std::size_t>(d) >= num_decisions_)
        throw std::out_of_range("UniformRandomPolicy::probability: decision out of range");
    return 1.0 / static_cast<double>(num_decisions_);
}

EpsilonGreedyPolicy::EpsilonGreedyPolicy(std::shared_ptr<const Policy> base,
                                         double epsilon)
    : base_(std::move(base)), epsilon_(epsilon) {
    if (!base_) throw std::invalid_argument("EpsilonGreedyPolicy: null base policy");
    if (epsilon_ < 0.0 || epsilon_ > 1.0)
        throw std::invalid_argument("EpsilonGreedyPolicy: epsilon outside [0,1]");
}

std::vector<double> EpsilonGreedyPolicy::action_probabilities(
    const ClientContext& context) const {
    std::vector<double> probs = base_->action_probabilities(context);
    const double uniform = epsilon_ / static_cast<double>(probs.size());
    for (double& p : probs) p = (1.0 - epsilon_) * p + uniform;
    return probs;
}

void EpsilonGreedyPolicy::action_probabilities_into(
    const ClientContext& context, std::vector<double>& out) const {
    base_->action_probabilities_into(context, out);
    // Same mix arithmetic as action_probabilities(), applied in place.
    const double uniform = epsilon_ / static_cast<double>(out.size());
    for (double& p : out) p = (1.0 - epsilon_) * p + uniform;
}

SoftmaxPolicy::SoftmaxPolicy(std::size_t num_decisions, Scorer scorer,
                             double temperature)
    : num_decisions_(num_decisions),
      scorer_(std::move(scorer)),
      temperature_(temperature) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("SoftmaxPolicy: empty decision space");
    if (!scorer_) throw std::invalid_argument("SoftmaxPolicy: null scorer");
    if (temperature_ <= 0.0)
        throw std::invalid_argument("SoftmaxPolicy: temperature must be > 0");
}

std::vector<double> SoftmaxPolicy::action_probabilities(
    const ClientContext& context) const {
    std::vector<double> scores(num_decisions_);
    for (std::size_t d = 0; d < num_decisions_; ++d)
        scores[d] = scorer_(context, static_cast<Decision>(d)) / temperature_;
    const double peak = *std::max_element(scores.begin(), scores.end());
    double total = 0.0;
    for (double& s : scores) {
        s = std::exp(s - peak);
        total += s;
    }
    for (double& s : scores) s /= total;
    return scores;
}

MixturePolicy::MixturePolicy(std::shared_ptr<const Policy> a,
                             std::shared_ptr<const Policy> b, double weight_a)
    : a_(std::move(a)), b_(std::move(b)), weight_a_(weight_a) {
    if (!a_ || !b_) throw std::invalid_argument("MixturePolicy: null component");
    if (a_->num_decisions() != b_->num_decisions())
        throw std::invalid_argument("MixturePolicy: decision-space mismatch");
    if (weight_a_ < 0.0 || weight_a_ > 1.0)
        throw std::invalid_argument("MixturePolicy: weight outside [0,1]");
}

std::vector<double> MixturePolicy::action_probabilities(
    const ClientContext& context) const {
    std::vector<double> pa = a_->action_probabilities(context);
    const std::vector<double> pb = b_->action_probabilities(context);
    for (std::size_t d = 0; d < pa.size(); ++d)
        pa[d] = weight_a_ * pa[d] + (1.0 - weight_a_) * pb[d];
    return pa;
}

} // namespace dre::core
