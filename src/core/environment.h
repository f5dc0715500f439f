// Ground-truth environments.
//
// An Environment encapsulates the world that generates contexts and rewards.
// It is what a *real deployment* would expose (Figure 1's right-hand box);
// the evaluators never see it — it exists so experiments can (a) generate
// logged traces with a logging policy and (b) compute the true value
// V(mu_new) that trace-driven estimates are compared against.
#ifndef DRE_CORE_ENVIRONMENT_H
#define DRE_CORE_ENVIRONMENT_H

#include <memory>
#include <vector>

#include "core/policy.h"
#include "stats/rng.h"
#include "trace/trace.h"
#include "trace/types.h"

namespace dre::core {

class Environment {
public:
    virtual ~Environment() = default;

    // Draw a client context from the population.
    virtual ClientContext sample_context(stats::Rng& rng) const = 0;

    // Sample the stochastic reward of taking `d` for `context`.
    virtual Reward sample_reward(const ClientContext& context, Decision d,
                                 stats::Rng& rng) const = 0;

    // E[r | c, d]. Defaults to Monte-Carlo over sample_reward; environments
    // with closed-form means should override.
    virtual double expected_reward(const ClientContext& context, Decision d,
                                   stats::Rng& rng, int samples = 256) const;

    virtual std::size_t num_decisions() const noexcept = 0;

protected:
    Environment() = default;
    Environment(const Environment&) = default;
    Environment& operator=(const Environment&) = default;
};

// Run `logging_policy` on `n` clients drawn from `env`, recording the true
// logging propensities. This is the "data collection phase" of Figure 1.
Trace collect_trace(const Environment& env, const Policy& logging_policy,
                    std::size_t n, stats::Rng& rng);

// Ground-truth policy value V(mu) = E_c E_{d~mu(.|c)} E[r | c, d], estimated
// by Monte Carlo with `clients` independent context draws.
double true_policy_value(const Environment& env, const Policy& policy,
                         std::size_t clients, stats::Rng& rng);

// Ground-truth value of a history policy replayed over fresh interactions.
double true_policy_value(const Environment& env, const HistoryPolicy& policy,
                         std::size_t clients, stats::Rng& rng);

// Relative error |V - Vhat| / |V| — the paper's evaluation-error metric.
double relative_error(double truth, double estimate);

} // namespace dre::core

#endif // DRE_CORE_ENVIRONMENT_H
