// Policies: mappings from client contexts to distributions over decisions
// (paper §2.1: "a policy returns mu(d|c), the probability of choosing the
// decision d for client c, and sum_d mu(d|c) = 1").
#ifndef DRE_CORE_POLICY_H
#define DRE_CORE_POLICY_H

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "stats/rng.h"
#include "trace/types.h"

namespace dre::core {

// Stationary ("history-agnostic") policy interface.
class Policy {
public:
    virtual ~Policy() = default;

    // Full distribution over the decision space for this context. Always
    // returns num_decisions() probabilities summing to 1.
    virtual std::vector<double> action_probabilities(
        const ClientContext& context) const = 0;

    // Allocation-free variant for the estimator hot loops: fill `out` with
    // the same distribution, reusing its capacity. The default delegates to
    // action_probabilities(); policies whose distribution is cheap to
    // write in place (uniform, one-hot, table rows, epsilon mixes)
    // override it. Overrides must produce values bit-identical to
    // action_probabilities() — the estimators rely on the two being
    // interchangeable.
    virtual void action_probabilities_into(const ClientContext& context,
                                           std::vector<double>& out) const {
        out = action_probabilities(context);
    }

    virtual std::size_t num_decisions() const noexcept = 0;

    // mu(d | c). Default implementation indexes action_probabilities().
    // Overrides must return exactly action_probabilities(context)[d] — the
    // estimators read either interchangeably.
    virtual double probability(const ClientContext& context, Decision d) const;

    // Sample a decision from mu(. | c).
    Decision sample(const ClientContext& context, stats::Rng& rng) const;

protected:
    Policy() = default;
    Policy(const Policy&) = default;
    Policy& operator=(const Policy&) = default;
};

// Deterministic policy defined by a chooser function.
class DeterministicPolicy final : public Policy {
public:
    using Chooser = std::function<Decision(const ClientContext&)>;

    DeterministicPolicy(std::size_t num_decisions, Chooser chooser);

    std::vector<double> action_probabilities(const ClientContext& context) const override;
    void action_probabilities_into(const ClientContext& context,
                                   std::vector<double>& out) const override;
    double probability(const ClientContext& context, Decision d) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

    Decision choose(const ClientContext& context) const { return checked_choice(context); }

private:
    Decision checked_choice(const ClientContext& context) const;

    std::size_t num_decisions_;
    Chooser chooser_;
};

// Uniform-random policy (the CFA paper's logging policy: "clients ... have
// been randomly assigned to a set of available CDNs and bitrates").
class UniformRandomPolicy final : public Policy {
public:
    explicit UniformRandomPolicy(std::size_t num_decisions);

    std::vector<double> action_probabilities(const ClientContext&) const override;
    void action_probabilities_into(const ClientContext&,
                                   std::vector<double>& out) const override;
    double probability(const ClientContext&, Decision d) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

private:
    std::size_t num_decisions_;
};

// Epsilon-greedy wrapper: with prob. 1-epsilon follow the base policy's
// distribution, with prob. epsilon pick uniformly. This is the §4.1
// "introduce randomness where impact on overall performance is small"
// recommendation, and gives IPS/DR the full-support guarantee they need.
class EpsilonGreedyPolicy final : public Policy {
public:
    EpsilonGreedyPolicy(std::shared_ptr<const Policy> base, double epsilon);

    std::vector<double> action_probabilities(const ClientContext& context) const override;
    void action_probabilities_into(const ClientContext& context,
                                   std::vector<double>& out) const override;
    std::size_t num_decisions() const noexcept override { return base_->num_decisions(); }

    double epsilon() const noexcept { return epsilon_; }

private:
    std::shared_ptr<const Policy> base_;
    double epsilon_;
};

// Softmax over per-context decision scores: mu(d|c) ∝ exp(score(c,d)/T).
class SoftmaxPolicy final : public Policy {
public:
    using Scorer = std::function<double(const ClientContext&, Decision)>;

    SoftmaxPolicy(std::size_t num_decisions, Scorer scorer, double temperature = 1.0);

    std::vector<double> action_probabilities(const ClientContext& context) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

private:
    std::size_t num_decisions_;
    Scorer scorer_;
    double temperature_;
};

// Mixture: alpha * a + (1-alpha) * b, per context. Handy for building "new"
// policies that partially overlap the old one (paper Fig. 7a's "50% of ISP-1
// clients use FE-1 and BE-2").
class MixturePolicy final : public Policy {
public:
    MixturePolicy(std::shared_ptr<const Policy> a, std::shared_ptr<const Policy> b,
                  double weight_a);

    std::vector<double> action_probabilities(const ClientContext& context) const override;
    std::size_t num_decisions() const noexcept override { return a_->num_decisions(); }

private:
    std::shared_ptr<const Policy> a_;
    std::shared_ptr<const Policy> b_;
    double weight_a_;
};

// History-dependent ("non-stationary", §4.1/§4.2) policy: the decision may
// depend on the observed history h_k = {(c_i, d_i, r_i)} for i < k.
class HistoryPolicy {
public:
    virtual ~HistoryPolicy() = default;

    virtual std::vector<double> action_probabilities(
        const ClientContext& context, std::span<const LoggedTuple> history) const = 0;

    virtual std::size_t num_decisions() const noexcept = 0;

protected:
    HistoryPolicy() = default;
    HistoryPolicy(const HistoryPolicy&) = default;
    HistoryPolicy& operator=(const HistoryPolicy&) = default;
};

// Throws std::invalid_argument unless `distribution` has the expected size,
// non-negative finite entries, and sums to 1 within tolerance.
void validate_distribution(std::span<const double> distribution,
                           std::size_t expected_size);

} // namespace dre::core

#endif // DRE_CORE_POLICY_H
