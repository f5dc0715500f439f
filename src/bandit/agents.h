// Online exploration agents — the §4.1 remedy made concrete.
//
// The paper's first recommendation for the randomness pitfall is to
// "introduce (perhaps judicious amounts of) randomization in the decisions"
// so that logged traces carry the support that IPS/DR need. This module
// provides the classic multi-armed-bandit exploration strategies as
// *logging agents*: each one plays decisions sequentially, learns from the
// observed rewards, and — crucially — exposes the exact distribution it
// samples from, so every logged tuple records a correct propensity.
//
// The agents differ in how much evaluability they preserve:
//   * UniformAgent / EpsilonGreedyAgent / EpsilonDecayAgent — explicit
//     randomization with known floors; full support by construction.
//   * BoltzmannAgent / Exp3Agent — softmax-style distributions; support
//     decays smoothly as the agent converges.
//   * GaussianThompsonAgent — posterior sampling; propensities estimated by
//     Monte Carlo over posterior draws (and then sampled *from* those
//     estimates so the logged propensity is exact w.r.t. the sampler).
//   * Ucb1Agent — deterministic; the logged "propensity" is a point mass,
//     which deliberately breaks downstream IPS/DR. It is here so the
//     exploration ablation can measure exactly what determinism costs.
//
// All agents are context-free (classic bandits) — they maintain one set of
// per-arm statistics. ContextualAgent lifts any of them to a per-context
// bandit by keeping an independent copy per context fingerprint.
#ifndef DRE_BANDIT_AGENTS_H
#define DRE_BANDIT_AGENTS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stats/rng.h"
#include "trace/types.h"

namespace dre::bandit {

// Sequential decision-maker with correct logged propensities.
//
// Unlike core::Policy, an agent is *stateful*: action_probabilities()
// reflects everything learned so far and update() feeds back the observed
// reward. The contract that makes off-policy reuse sound is: the caller
// must sample the decision from exactly the vector returned by
// action_probabilities() and log that vector's entry as the propensity
// (run_bandit() in run.h does this).
class ExplorationAgent {
public:
    virtual ~ExplorationAgent() = default;

    // The distribution the agent wants to sample from *now*. Always
    // num_decisions() non-negative entries summing to 1.
    virtual std::vector<double> action_probabilities(const ClientContext& context) = 0;

    // Feed back the observed reward for a decision the agent took.
    virtual void update(const ClientContext& context, Decision d, Reward r) = 0;

    virtual std::size_t num_decisions() const noexcept = 0;

    // Short strategy label for tables ("ucb1", "exp3", ...).
    virtual std::string_view name() const noexcept = 0;

protected:
    ExplorationAgent() = default;
    ExplorationAgent(const ExplorationAgent&) = default;
    ExplorationAgent& operator=(const ExplorationAgent&) = default;
};

// Per-arm running statistics shared by the context-free agents.
struct ArmStats {
    std::size_t pulls = 0;
    double mean = 0.0;

    void add(double reward) {
        ++pulls;
        mean += (reward - mean) / static_cast<double>(pulls);
    }
};

// Uniform random play — maximal evaluability, maximal exploration cost.
class UniformAgent final : public ExplorationAgent {
public:
    explicit UniformAgent(std::size_t num_decisions);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision, Reward) override {}
    std::size_t num_decisions() const noexcept override { return num_decisions_; }
    std::string_view name() const noexcept override { return "uniform"; }

private:
    std::size_t num_decisions_;
};

// Fixed-epsilon greedy on empirical means. epsilon/k is the hard propensity
// floor every logged tuple is guaranteed to respect.
class EpsilonGreedyAgent final : public ExplorationAgent {
public:
    EpsilonGreedyAgent(std::size_t num_decisions, double epsilon);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override { return arms_.size(); }
    std::string_view name() const noexcept override { return "eps-greedy"; }


private:
    std::vector<ArmStats> arms_;
    double epsilon_;
};

// Decaying epsilon: eps_t = max(floor, initial / t^power), t = 1, 2, ...
// The "judicious" schedule — exploration cost shrinks over time while the
// floor keeps propensities bounded away from zero forever.
class EpsilonDecayAgent final : public ExplorationAgent {
public:
    struct Schedule {
        double initial = 1.0;  // eps at t=1
        double power = 0.5;    // decay exponent (0.5 -> 1/sqrt(t))
        double floor = 0.01;   // never explore less than this
    };

    EpsilonDecayAgent(std::size_t num_decisions, const Schedule& schedule);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override { return arms_.size(); }
    std::string_view name() const noexcept override { return "eps-decay"; }

    // Epsilon that the *next* action_probabilities() call will use.
    double current_epsilon() const noexcept;

private:
    std::vector<ArmStats> arms_;
    Schedule schedule_;
    std::size_t t_ = 0; // completed steps
};

// Softmax over empirical means: mu(a) ∝ exp(mean_a / temperature).
class BoltzmannAgent final : public ExplorationAgent {
public:
    BoltzmannAgent(std::size_t num_decisions, double temperature);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override { return arms_.size(); }
    std::string_view name() const noexcept override { return "boltzmann"; }

private:
    std::vector<ArmStats> arms_;
    double temperature_;
};

// UCB1 (Auer et al. 2002): deterministic argmax of mean + c*sqrt(2 ln t / n).
// Unpulled arms are tried first (round-robin). Logged propensities are point
// masses — excellent regret, *zero* off-policy support.
class Ucb1Agent final : public ExplorationAgent {
public:
    explicit Ucb1Agent(std::size_t num_decisions, double exploration_coef = 1.0);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override { return arms_.size(); }
    std::string_view name() const noexcept override { return "ucb1"; }

private:
    std::size_t best_arm() const;

    std::vector<ArmStats> arms_;
    double exploration_coef_;
    std::size_t t_ = 0;
};

// EXP3 (Auer et al. 2002, adversarial bandits). Rewards are clamped to the
// configured [reward_min, reward_max] and rescaled to [0,1] internally.
// gamma is the uniform-mixing coefficient — also the propensity floor
// (gamma/k) every logged tuple respects.
class Exp3Agent final : public ExplorationAgent {
public:
    Exp3Agent(std::size_t num_decisions, double gamma, double reward_min,
              double reward_max);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override { return log_weights_.size(); }
    std::string_view name() const noexcept override { return "exp3"; }

private:
    std::vector<double> distribution() const;

    std::vector<double> log_weights_; // kept in log space for stability
    double gamma_;
    double reward_min_;
    double reward_max_;
};

// Thompson sampling with a Gaussian model: arm a ~ N(posterior_mean_a,
// posterior_var_a); play the argmax of one joint draw. The action
// probabilities (probability each arm wins the draw) have no closed form,
// so they are estimated with `propensity_samples` Monte-Carlo draws and the
// decision is then sampled *from that estimate* — making the logged
// propensity exact with respect to the actual sampling distribution.
class GaussianThompsonAgent final : public ExplorationAgent {
public:
    struct Options {
        double prior_mean = 0.0;
        double prior_strength = 1.0;   // pseudo-observations behind the prior
        double noise_sigma = 1.0;      // assumed reward noise scale
        int propensity_samples = 512;  // MC draws for the win probabilities
        std::uint64_t seed = 7;        // internal posterior-draw RNG
    };

    GaussianThompsonAgent(std::size_t num_decisions, const Options& options);

    std::vector<double> action_probabilities(const ClientContext&) override;
    void update(const ClientContext&, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override { return arms_.size(); }
    std::string_view name() const noexcept override { return "thompson"; }

private:
    std::vector<ArmStats> arms_;
    Options options_;
    stats::Rng draw_rng_;
};

// Lifts a context-free agent to a contextual one: an independent copy of
// the inner agent per context *key*. The default key is the full context
// fingerprint — right for discrete contexts (WISE/CFA-style); when the
// context carries continuous features, pass a key function that projects
// onto the discrete part (e.g. the client's zone), otherwise every request
// is a brand-new context and nothing is ever learned.
class ContextualAgent final : public ExplorationAgent {
public:
    using Factory = std::function<std::unique_ptr<ExplorationAgent>()>;
    using KeyFn = std::function<std::uint64_t(const ClientContext&)>;

    // `factory` must produce agents with a consistent num_decisions().
    explicit ContextualAgent(Factory factory, KeyFn key = {});

    std::vector<double> action_probabilities(const ClientContext& context) override;
    void update(const ClientContext& context, Decision d, Reward r) override;
    std::size_t num_decisions() const noexcept override;
    std::string_view name() const noexcept override { return "contextual"; }

    std::size_t num_contexts_seen() const noexcept { return per_context_.size(); }

private:
    ExplorationAgent& agent_for(const ClientContext& context);

    Factory factory_;
    KeyFn key_;
    mutable std::unordered_map<std::uint64_t, std::unique_ptr<ExplorationAgent>>
        per_context_;
    std::unique_ptr<ExplorationAgent> prototype_; // defines num_decisions()
};

} // namespace dre::bandit

#endif // DRE_BANDIT_AGENTS_H
