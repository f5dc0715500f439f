// Cross-substrate contract tests: every scenario environment, when logged
// under a full-support policy, must satisfy the same estimator identities.
// Parameterized over environment factories so new substrates inherit the
// whole contract automatically.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/quantile_estimators.h"
#include "core/reward_model.h"
#include "netsim/assignment_env.h"
#include "netsim/routing_env.h"
#include "relay/scenario.h"
#include "stats/summary.h"
#include "wise/scenario.h"

namespace dre::core {
namespace {

struct EnvCase {
    const char* name;
    std::function<std::shared_ptr<Environment>()> make;
};

class EstimatorContract : public testing::TestWithParam<EnvCase> {
protected:
    void SetUp() override {
        env_ = GetParam().make();
        rng_ = std::make_unique<stats::Rng>(2017);
        logging_ = std::make_unique<UniformRandomPolicy>(env_->num_decisions());
        trace_ = collect_trace(*env_, *logging_, 3000, *rng_);
    }

    std::shared_ptr<Environment> env_;
    std::unique_ptr<stats::Rng> rng_;
    std::unique_ptr<UniformRandomPolicy> logging_;
    Trace trace_;
};

TEST_P(EstimatorContract, MeanImportanceWeightIsOneForLoggingPolicy) {
    const auto diag_weights = importance_weights(trace_, *logging_);
    EXPECT_NEAR(stats::mean(diag_weights), 1.0, 1e-9);
}

TEST_P(EstimatorContract, IpsOnLoggingPolicyEqualsTraceMean) {
    EXPECT_NEAR(inverse_propensity(trace_, *logging_).value,
                stats::mean(trace_.rewards()), 1e-9);
}

TEST_P(EstimatorContract, SnipsEqualsIpsUnderUniformLogging) {
    // All weights are equal for the logging policy, so SNIPS == IPS.
    EXPECT_NEAR(self_normalized_ips(trace_, *logging_).value,
                inverse_propensity(trace_, *logging_).value, 1e-9);
}

TEST_P(EstimatorContract, DrWithZeroModelEqualsIps) {
    ConstantRewardModel zero(env_->num_decisions(), 0.0);
    DeterministicPolicy target(env_->num_decisions(),
                               [](const ClientContext&) { return Decision{0}; });
    EXPECT_NEAR(doubly_robust(trace_, target, zero).value,
                inverse_propensity(trace_, target).value, 1e-9);
}

TEST_P(EstimatorContract, DrConsistentAcrossFormulations) {
    // SWITCH-DR with a huge threshold must coincide with plain DR.
    TabularRewardModel model(env_->num_decisions());
    model.fit(trace_);
    DeterministicPolicy target(env_->num_decisions(),
                               [](const ClientContext&) { return Decision{0}; });
    const double dr = doubly_robust(trace_, target, model).value;
    EstimatorOptions options;
    options.switch_threshold = 1e12;
    EXPECT_NEAR(switch_doubly_robust(trace_, target, model, options).value, dr,
                1e-9);
}

TEST_P(EstimatorContract, EstimatesApproximateGroundTruth) {
    // IPS and DR (tabular) must land near the true value of a fixed target.
    DeterministicPolicy target(env_->num_decisions(),
                               [](const ClientContext&) { return Decision{1}; });
    const double truth = true_policy_value(*env_, target, 150000, *rng_);
    const double scale = std::max(std::fabs(truth), 0.5);
    EXPECT_NEAR(inverse_propensity(trace_, target).value, truth, 0.2 * scale);
    TabularRewardModel model(env_->num_decisions());
    model.fit(trace_);
    EXPECT_NEAR(doubly_robust(trace_, target, model).value, truth, 0.2 * scale);
}

TEST_P(EstimatorContract, OffPolicyCdfIsProperDistribution) {
    DeterministicPolicy target(env_->num_decisions(),
                               [](const ClientContext&) { return Decision{0}; });
    const OffPolicyDistribution dist(trace_, target);
    EXPECT_GT(dist.total_weight(), 0.0);
    EXPECT_LE(dist.quantile(0.1), dist.quantile(0.9));
}

TEST_P(EstimatorContract, ReplayMatchesAreRoughlyUniformShare) {
    DeterministicPolicy target(env_->num_decisions(),
                               [](const ClientContext&) { return Decision{0}; });
    const ReplayEstimate replay = matching_replay(trace_, target);
    const double expected =
        1.0 / static_cast<double>(env_->num_decisions());
    EXPECT_NEAR(replay.match_rate, expected, 0.5 * expected);
    EXPECT_GT(replay.matches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnvironments, EstimatorContract,
    testing::Values(
        EnvCase{"servers",
                [] {
                    return std::make_shared<netsim::ServerSelectionEnv>(3, 4, 7);
                }},
        EnvCase{"routing",
                [] {
                    return std::make_shared<netsim::RoutingEnv>(
                        netsim::RoutingEnv::standard3());
                }},
        EnvCase{"cdn",
                [] {
                    return std::make_shared<cdn::VideoQualityEnv>(
                        cdn::CdnWorldConfig{});
                }},
        EnvCase{"relay",
                [] {
                    return std::make_shared<relay::RelayEnv>(
                        relay::RelayWorldConfig{});
                }},
        EnvCase{"wise",
                [] {
                    return std::make_shared<wise::RequestRoutingEnv>(
                        wise::WiseWorldConfig{});
                }}),
    [](const testing::TestParamInfo<EnvCase>& info) { return info.param.name; });

} // namespace
} // namespace dre::core
