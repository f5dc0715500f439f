#include "core/environment.h"

#include <cmath>
#include <stdexcept>

#include "fault/fault.h"

namespace dre::core {

double Environment::expected_reward(const ClientContext& context, Decision d,
                                    stats::Rng& rng, int samples) const {
    if (samples <= 0) throw std::invalid_argument("expected_reward: samples <= 0");
    double total = 0.0;
    for (int i = 0; i < samples; ++i) total += sample_reward(context, d, rng);
    return total / samples;
}

Trace collect_trace(const Environment& env, const Policy& logging_policy,
                    std::size_t n, stats::Rng& rng) {
    if (logging_policy.num_decisions() != env.num_decisions())
        throw std::invalid_argument("collect_trace: decision-space mismatch");
    Trace trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        DRE_FAULT_INJECT("env.step", i, 0);
        LoggedTuple t;
        t.context = env.sample_context(rng);
        const std::vector<double> probs =
            logging_policy.action_probabilities(t.context);
        t.decision = static_cast<Decision>(rng.categorical(probs));
        t.propensity = probs[static_cast<std::size_t>(t.decision)];
        t.reward = env.sample_reward(t.context, t.decision, rng);
        trace.add(std::move(t));
    }
    return trace;
}

double true_policy_value(const Environment& env, const Policy& policy,
                         std::size_t clients, stats::Rng& rng) {
    if (clients == 0) throw std::invalid_argument("true_policy_value: zero clients");
    double total = 0.0;
    for (std::size_t i = 0; i < clients; ++i) {
        const ClientContext context = env.sample_context(rng);
        const Decision d = policy.sample(context, rng);
        total += env.sample_reward(context, d, rng);
    }
    return total / static_cast<double>(clients);
}

double true_policy_value(const Environment& env, const HistoryPolicy& policy,
                         std::size_t clients, stats::Rng& rng) {
    if (clients == 0) throw std::invalid_argument("true_policy_value: zero clients");
    Trace history;
    history.reserve(clients);
    double total = 0.0;
    for (std::size_t i = 0; i < clients; ++i) {
        LoggedTuple t;
        t.context = env.sample_context(rng);
        const std::vector<double> probs =
            policy.action_probabilities(t.context, history.tuples());
        t.decision = static_cast<Decision>(rng.categorical(probs));
        t.propensity = probs[static_cast<std::size_t>(t.decision)];
        t.reward = env.sample_reward(t.context, t.decision, rng);
        total += t.reward;
        history.add(std::move(t));
    }
    return total / static_cast<double>(clients);
}

double relative_error(double truth, double estimate) {
    const double denom = std::fabs(truth);
    if (denom < 1e-12) return std::fabs(estimate - truth);
    return std::fabs(estimate - truth) / denom;
}

} // namespace dre::core
