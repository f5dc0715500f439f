#include "core/dr_nonstationary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/environment.h"
#include "core/estimators.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::core {
namespace {

// Stateless environment for replay: E[r | x, d] = x * (d ? 1 : -1).
class SignEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0)}, {});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return c.numeric[0] * (d == 1 ? 1.0 : -1.0) + rng.normal(0.0, 0.1);
    }
    std::size_t num_decisions() const noexcept override { return 2; }
};

// History policy: play decision 1 iff the running mean reward so far is
// positive (a genuinely non-stationary, self-referential rule).
class MomentumPolicy final : public HistoryPolicy {
public:
    explicit MomentumPolicy(double epsilon) : epsilon_(epsilon) {}

    std::vector<double> action_probabilities(
        const ClientContext&, std::span<const LoggedTuple> history) const override {
        double mean = 0.0;
        for (const auto& t : history) mean += t.reward;
        if (!history.empty()) mean /= static_cast<double>(history.size());
        const std::size_t preferred = mean >= 0.0 ? 1 : 0;
        std::vector<double> probs(2, epsilon_ / 2.0);
        probs[preferred] += 1.0 - epsilon_;
        return probs;
    }
    std::size_t num_decisions() const noexcept override { return 2; }

private:
    double epsilon_;
};

// A stationary policy seen as a history policy: ignores the history.
class IgnoresHistory final : public HistoryPolicy {
public:
    explicit IgnoresHistory(std::shared_ptr<const Policy> base) : base_(std::move(base)) {}

    std::vector<double> action_probabilities(
        const ClientContext& context, std::span<const LoggedTuple>) const override {
        return base_->action_probabilities(context);
    }
    std::size_t num_decisions() const noexcept override { return base_->num_decisions(); }

private:
    std::shared_ptr<const Policy> base_;
};

TEST(NonstationaryDr, StationaryPolicyMatchesBasicDrWithAccurateModel) {
    // The paper states the extended estimator "is identical to the basic DR
    // under the assumption of stationary policies"; with the per-matched-
    // client normalization this holds when the reward model is accurate (the
    // residual term vanishes), so we test exactly that regime.
    SignEnv env;
    stats::Rng rng(1);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 4000, rng);

    auto target = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext& c) {
            return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
        });
    OracleRewardModel model(2, [](const ClientContext& c, Decision d) {
        return c.numeric[0] * (d == 1 ? 1.0 : -1.0);
    });

    const double basic = doubly_robust(trace, *target, model).value;
    IgnoresHistory as_history(target);
    const NonstationaryEstimate extended = doubly_robust_nonstationary_averaged(
        trace, as_history, model, rng, 32);
    EXPECT_GT(extended.matched, 0u);
    EXPECT_NEAR(extended.value, basic, 0.05);
}

TEST(NonstationaryDr, MatchRateTracksPolicyAgreement) {
    SignEnv env;
    stats::Rng rng(2);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 2000, rng);
    MomentumPolicy target(0.1);
    ConstantRewardModel model(2, 0.0);
    const NonstationaryEstimate e =
        doubly_robust_nonstationary(trace, target, model, rng);
    // Uniform logging vs mostly-deterministic target: about half the logged
    // decisions should match the sampled ones.
    EXPECT_NEAR(e.match_rate, 0.5, 0.1);
}

TEST(NonstationaryDr, EstimatesHistoryPolicyValue) {
    SignEnv env;
    stats::Rng rng(3);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 6000, rng);

    MomentumPolicy target(0.05);
    const double truth = true_policy_value(env, target, 60000, rng);

    TabularRewardModel model(2);
    model.fit(trace);
    const NonstationaryEstimate e = doubly_robust_nonstationary_averaged(
        trace, target, model, rng, 16);
    EXPECT_GT(e.matched, 100u);
    EXPECT_NEAR(e.value, truth, 0.15);
}

TEST(NonstationaryDr, RejectionBeatsNaiveHistoryHandling) {
    // The naive evaluator conditions the target on the *logged* history,
    // which under uniform logging has mean reward ~0 (not what the target
    // policy would have produced), so its decisions flip-flop and its value
    // estimate is further from the truth.
    SignEnv env;
    stats::Rng rng(4);
    UniformRandomPolicy logging(2);
    MomentumPolicy target(0.05);
    TabularRewardModel model(2);

    const double truth = true_policy_value(env, target, 60000, rng);
    stats::Accumulator rejection_err, naive_err;
    for (int run = 0; run < 10; ++run) {
        const Trace trace = collect_trace(env, logging, 3000, rng);
        TabularRewardModel fit_model(2);
        fit_model.fit(trace);
        const NonstationaryEstimate good = doubly_robust_nonstationary_averaged(
            trace, target, fit_model, rng, 8);
        const double bad = doubly_robust_ignoring_history(trace, target, fit_model);
        rejection_err.add(std::fabs(good.value - truth));
        naive_err.add(std::fabs(bad - truth));
    }
    EXPECT_LT(rejection_err.mean(), naive_err.mean() + 0.05);
}

TEST(NonstationaryDr, Validation) {
    SignEnv env;
    stats::Rng rng(5);
    MomentumPolicy target(0.1);
    ConstantRewardModel model(2, 0.0);
    EXPECT_THROW(doubly_robust_nonstationary(Trace{}, target, model, rng),
                 std::invalid_argument);
    const Trace trace = collect_trace(env, UniformRandomPolicy(2), 10, rng);
    ConstantRewardModel wrong(3, 0.0);
    EXPECT_THROW(doubly_robust_nonstationary(trace, target, wrong, rng),
                 std::invalid_argument);
    EXPECT_THROW(
        doubly_robust_nonstationary_averaged(trace, target, model, rng, 0),
        std::invalid_argument);
}

} // namespace
} // namespace dre::core
