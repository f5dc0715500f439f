// Tests for the A/B experimentation module: power analysis, the
// always-valid mixture SPRT, and the live experiment runner.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ab/design.h"
#include "ab/experiment.h"
#include "ab/test.h"
#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"

namespace dre::ab {
namespace {

TEST(Design, MatchesTextbookSampleSize) {
    // delta = 0.1, sigma = 1, alpha = 0.05, power = 0.8:
    // n = (1.95996 + 0.84162)^2 * 2 / 0.01 = 1569.9 -> 1570.
    EXPECT_EQ(required_samples_per_arm(0.1, 1.0), 1570u);
    // Quadruple the effect -> 1/16th the samples (99).
    EXPECT_EQ(required_samples_per_arm(0.4, 1.0), 99u);
    // delta = 0.25, sigma = 1.5: 2.80158^2 * 2 * 2.25 / 0.0625 = 565.1 -> 566.
    EXPECT_EQ(required_samples_per_arm(0.25, 1.5), 566u);
}

TEST(Design, Monotonicity) {
    EXPECT_GT(required_samples_per_arm(0.05, 1.0),
              required_samples_per_arm(0.1, 1.0));
    EXPECT_GT(required_samples_per_arm(0.1, 2.0),
              required_samples_per_arm(0.1, 1.0));
    EXPECT_GT(required_samples_per_arm(0.1, 1.0, {.alpha = 0.05, .power = 0.95}),
              required_samples_per_arm(0.1, 1.0, {.alpha = 0.05, .power = 0.80}));
}

TEST(Design, RejectsBadInputs) {
    EXPECT_THROW(required_samples_per_arm(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(required_samples_per_arm(0.1, 1.0, {.alpha = 0.0}),
                 std::invalid_argument);
}

TEST(MixtureSprt, ControlsFalsePositivesUnderTheNull) {
    stats::Rng rng(34);
    int false_rejections = 0;
    constexpr int kTrials = 200;
    for (int trial = 0; trial < kTrials; ++trial) {
        MixtureSprt sprt(0.2, 0.05);
        bool rejected = false;
        for (int i = 0; i < 2000 && !rejected; ++i)
            rejected = sprt.add(rng.normal(), rng.normal());
        if (rejected) ++false_rejections;
    }
    // Always-valid guarantee: even with continuous peeking over 2000 steps,
    // the false-rejection rate stays at or below alpha.
    EXPECT_LE(false_rejections / static_cast<double>(kTrials), 0.05 + 0.02);
}

TEST(MixtureSprt, DetectsARealEffectQuickly) {
    stats::Rng rng(35);
    std::vector<double> stop_times;
    for (int trial = 0; trial < 50; ++trial) {
        MixtureSprt sprt(0.3, 0.05);
        int stopped_at = -1;
        for (int i = 0; i < 5000; ++i) {
            if (sprt.add(0.3 + rng.normal(), rng.normal())) {
                stopped_at = i + 1;
                break;
            }
        }
        ASSERT_GT(stopped_at, 0) << "failed to detect a 0.3-sigma effect";
        EXPECT_GT(sprt.estimated_delta(), 0.0);
        stop_times.push_back(stopped_at);
    }
    double mean_stop = 0.0;
    for (double t : stop_times) mean_stop += t / stop_times.size();
    // Fixed-horizon design needs ~175/arm for this effect; the sequential
    // test should average the same order, not thousands.
    EXPECT_LT(mean_stop, 600.0);
}

TEST(MixtureSprt, PValueIsMonotoneNonIncreasing) {
    stats::Rng rng(36);
    MixtureSprt sprt(0.2, 0.05);
    double last_p = 1.0;
    for (int i = 0; i < 500; ++i) {
        sprt.add(0.2 + rng.normal(), rng.normal());
        EXPECT_LE(sprt.always_valid_p(), last_p + 1e-15);
        last_p = sprt.always_valid_p();
    }
    EXPECT_THROW(MixtureSprt(0.0, 0.05), std::invalid_argument);
    EXPECT_THROW(MixtureSprt(0.1, 1.5), std::invalid_argument);
}

// Minimal environment: two decisions whose rewards differ by `delta`.
class TwoPolicyEnv final : public core::Environment {
public:
    explicit TwoPolicyEnv(double delta) : delta_(delta) {}
    ClientContext sample_context(stats::Rng&) const override {
        return ClientContext({0.0});
    }
    Reward sample_reward(const ClientContext&, Decision d,
                         stats::Rng& rng) const override {
        return (d == 1 ? delta_ : 0.0) + rng.normal();
    }
    std::size_t num_decisions() const noexcept override { return 2; }

private:
    double delta_;
};

TEST(LiveAb, FindsTheBetterArmAndReportsTrafficCost) {
    TwoPolicyEnv env(0.4);
    stats::Rng rng(37);
    core::DeterministicPolicy better(2, [](const ClientContext&) {
        return Decision{1};
    });
    core::DeterministicPolicy worse(2, [](const ClientContext&) {
        return Decision{0};
    });
    const LiveAbOutcome outcome =
        run_live_ab(env, better, worse, {.tau = 0.4, .max_pairs = 20000}, rng);
    EXPECT_TRUE(outcome.significant);
    EXPECT_GT(outcome.estimated_delta, 0.0);
    EXPECT_LE(outcome.always_valid_p, 0.05);
    EXPECT_GE(outcome.pairs_used, 20u); // min_pairs guard
    EXPECT_LT(outcome.pairs_used, 2000u);
    EXPECT_GT(outcome.mean_reward_a, outcome.mean_reward_b);
}

// Reproducibility contract: a live experiment is a pure function of its seed.
TEST(LiveAb, BitExactGivenTheSameSeed) {
    TwoPolicyEnv env(0.3);
    core::UniformRandomPolicy a(2), b(2);
    auto run_once = [&] {
        stats::Rng rng(77);
        return run_live_ab(env, a, b, {.tau = 0.3, .max_pairs = 500}, rng);
    };
    const LiveAbOutcome first = run_once();
    const LiveAbOutcome second = run_once();
    EXPECT_EQ(first.pairs_used, second.pairs_used);
    EXPECT_EQ(first.estimated_delta, second.estimated_delta);
    EXPECT_EQ(first.always_valid_p, second.always_valid_p);
    EXPECT_EQ(first.mean_reward_a, second.mean_reward_a);
}

TEST(LiveAb, RespectsTheTrafficBudgetUnderTheNull) {
    TwoPolicyEnv env(0.0);
    stats::Rng rng(38);
    core::UniformRandomPolicy a(2), b(2);
    const LiveAbOutcome outcome =
        run_live_ab(env, a, b, {.tau = 0.2, .max_pairs = 300}, rng);
    EXPECT_EQ(outcome.pairs_used, 300u);
    EXPECT_FALSE(outcome.significant);
    EXPECT_THROW(run_live_ab(env, a, b, {.max_pairs = 0}, rng),
                 std::invalid_argument);
}

} // namespace
} // namespace dre::ab
