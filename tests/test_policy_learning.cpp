#include "core/policy_learning.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/parallel.h"
#include "simd/simd.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

// E[r | x, d] = x if d == 1 else -x: optimal policy is d = 1{x > 0}.
class SplitEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0)}, {});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        const double mean = d == 1 ? c.numeric[0] : -c.numeric[0];
        return mean + rng.normal(0.0, 0.2);
    }
    std::size_t num_decisions() const noexcept override { return 2; }
};

TEST(GreedyModelPolicy, FollowsModelArgmax) {
    auto model = std::make_shared<OracleRewardModel>(
        3, OracleRewardModel::Fn([](const ClientContext& c, Decision d) {
            return -std::fabs(c.numeric.at(0) - static_cast<double>(d));
        }));
    GreedyModelPolicy policy(model);
    EXPECT_DOUBLE_EQ(policy.action_probabilities(ClientContext({0.1}, {}))[0], 1.0);
    EXPECT_DOUBLE_EQ(policy.action_probabilities(ClientContext({1.2}, {}))[1], 1.0);
    EXPECT_DOUBLE_EQ(policy.action_probabilities(ClientContext({5.0}, {}))[2], 1.0);
    const auto probs = policy.action_probabilities(ClientContext({1.9}, {}));
    EXPECT_DOUBLE_EQ(probs[2], 1.0);
}

TEST(GreedyModelPolicy, EpsilonSmoothsProbabilities) {
    auto model = std::make_shared<ConstantRewardModel>(4, 0.0);
    GreedyModelPolicy policy(model, 0.4);
    const auto probs = policy.action_probabilities(ClientContext{});
    EXPECT_NEAR(probs[0], 0.6 + 0.1, 1e-12); // ties broken toward decision 0
    EXPECT_NEAR(probs[1], 0.1, 1e-12);
    EXPECT_THROW(GreedyModelPolicy(nullptr, 0.0), std::invalid_argument);
    EXPECT_THROW(GreedyModelPolicy(model, 1.5), std::invalid_argument);
}

// The per-decision definition the row path replaced: predict(c, d) for
// each d, strict-> argmax, then the epsilon mix.
std::vector<double> per_decision_reference(const RewardModel& model,
                                           const ClientContext& c,
                                           double epsilon) {
    const std::size_t n = model.num_decisions();
    std::size_t best = 0;
    double best_value = model.predict(c, 0);
    for (std::size_t d = 1; d < n; ++d) {
        const double value = model.predict(c, static_cast<Decision>(d));
        if (value > best_value) {
            best_value = value;
            best = d;
        }
    }
    std::vector<double> probs(n, epsilon / static_cast<double>(n));
    probs[best] += 1.0 - epsilon;
    return probs;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GreedyModelPolicy, RowPathMatchesPerDecisionReferenceBitwise) {
    stats::Rng rng(9);
    Trace trace;
    for (int i = 0; i < 400; ++i) {
        LoggedTuple t;
        t.context = ClientContext({rng.uniform(-1.0, 1.0)},
                                  {static_cast<std::int32_t>(rng.uniform_index(3))});
        t.decision = static_cast<Decision>(rng.uniform_index(4));
        t.reward = t.context.numeric[0] * static_cast<double>(t.decision) +
                   rng.normal(0.0, 0.5);
        t.propensity = 0.25;
        trace.add(std::move(t));
    }
    // Ties: in this context decisions 1 and 2 share the top tabular mean,
    // and decision 3 (never logged here) falls back to a lower mean.
    for (const Decision d : {0, 1, 2}) {
        LoggedTuple t;
        t.context = ClientContext({2.0}, {7});
        t.decision = d;
        t.reward = d == 0 ? -5.0 : 5.0;
        t.propensity = 0.25;
        trace.add(std::move(t));
    }
    std::vector<ClientContext> contexts = {ClientContext({2.0}, {7}),
                                           ClientContext({0.25}, {9})};
    for (std::size_t k = 0; k < trace.size(); k += 37)
        contexts.push_back(trace[k].context);

    for (const auto kind : {RewardModelKind::kTabular, RewardModelKind::kLinear,
                            RewardModelKind::kKnn}) {
        const std::shared_ptr<const RewardModel> model =
            fit_reward_model(kind, 4, trace);
        for (const double epsilon : {0.0, 0.25, 1.0}) {
            const GreedyModelPolicy policy(model, epsilon);
            std::vector<double> into(9, -1.0); // wrong size, stale values
            for (std::size_t i = 0; i < contexts.size(); ++i) {
                const ClientContext& c = contexts[i];
                const auto want = per_decision_reference(*model, c, epsilon);
                policy.action_probabilities_into(c, into);
                EXPECT_TRUE(same_bits(into, want))
                    << static_cast<int>(kind) << " eps=" << epsilon
                    << " context " << i;
                EXPECT_TRUE(same_bits(policy.action_probabilities(c), want));
            }
        }
    }
    const GreedyModelPolicy tabular(
        fit_reward_model(RewardModelKind::kTabular, 4, trace));
    // The tie between decisions 1 and 2 goes to 1.
    EXPECT_DOUBLE_EQ(tabular.action_probabilities(ClientContext({2.0}, {7}))[1], 1.0);
}

TEST(LearnGreedyPolicy, BeatsLoggingPolicyInTruth) {
    SplitEnv env;
    stats::Rng rng(1);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 4000, rng);

    const auto learned =
        learn_greedy_policy(trace, RewardModelKind::kLinear, 2, 0.0);
    const double learned_value = true_policy_value(env, *learned, 60000, rng);
    const double logging_value = true_policy_value(env, logging, 60000, rng);
    EXPECT_GT(learned_value, logging_value + 0.3); // 0.5 vs 0 analytically
    EXPECT_NEAR(learned_value, 0.5, 0.05);
}

TEST(CertifyImprovement, CertifiesGenuineLift) {
    SplitEnv env;
    stats::Rng rng(2);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 5000, rng);

    LinearRewardModel model(2);
    model.fit(trace);
    DeterministicPolicy good(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    const ImprovementReport report = certify_improvement(
        trace, logging, good, PredictionMatrix::build(model, trace), rng, 600);
    EXPECT_GT(report.estimated_lift, 0.3);
    EXPECT_TRUE(report.certified);
    EXPECT_NEAR(report.estimated_lift,
                report.candidate_value - report.incumbent_value, 1e-12);
    EXPECT_TRUE(report.lift_ci.contains(report.estimated_lift));
}

TEST(CertifyImprovement, DoesNotCertifyNoise) {
    SplitEnv env;
    stats::Rng rng(3);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 5000, rng);
    LinearRewardModel model(2);
    model.fit(trace);
    // A candidate identical in value to the incumbent (both uniform).
    UniformRandomPolicy candidate(2);
    const ImprovementReport report = certify_improvement(
        trace, logging, candidate, PredictionMatrix::build(model, trace), rng,
        600);
    EXPECT_FALSE(report.certified);
    EXPECT_NEAR(report.estimated_lift, 0.0, 0.05);
}

TEST(CertifyImprovement, RejectsWorseCandidate) {
    SplitEnv env;
    stats::Rng rng(4);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 5000, rng);
    LinearRewardModel model(2);
    model.fit(trace);
    DeterministicPolicy bad(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 0 : 1); // anti-optimal
    });
    const ImprovementReport report = certify_improvement(
        trace, logging, bad, PredictionMatrix::build(model, trace), rng, 600);
    EXPECT_LT(report.estimated_lift, -0.3);
    EXPECT_FALSE(report.certified);
}

// Restores the dispatch level and the pool size even if an assertion
// fails midway.
struct DispatchGuard {
    simd::Level level = simd::active_level();
    std::size_t threads = par::thread_count();
    ~DispatchGuard() {
        simd::set_active_level(level);
        par::set_thread_count(threads);
    }
};

// Known answer: the paired lift built here from the model-based DR
// estimators, resampled by chunked_bootstrap_mean_ci with the DR lift as
// its point, is certify_improvement's report bit for bit. The trace spans
// two full chunks and a ragged tail, and 201 replicates end one past a
// multiple of the vector resamplers' 8-stream pass; every supported SIMD
// level at 1 and 8 threads must reproduce the (scalar, 1 thread) answer.
TEST(CertifyImprovement, LiftCiIsTheChunkedBootstrapOfPairedDrDifferences) {
    DispatchGuard guard;
    SplitEnv env;
    stats::Rng rng(5);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 9000, rng);
    ASSERT_GT(trace.size(), 2 * par::kReduceChunk);
    LinearRewardModel model(2);
    model.fit(trace);
    DeterministicPolicy good(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    constexpr int kReplicates = 201;
    constexpr double kLevel = 0.9;

    simd::set_active_level(simd::Level::kScalar);
    par::set_thread_count(1);
    const EstimateResult incumbent_dr = doubly_robust(trace, logging, model);
    const EstimateResult candidate_dr = doubly_robust(trace, good, model);
    std::vector<double> diffs(trace.size());
    for (std::size_t k = 0; k < trace.size(); ++k)
        diffs[k] = candidate_dr.per_tuple[k] - incumbent_dr.per_tuple[k];
    const double lift = candidate_dr.value - incumbent_dr.value;
    stats::Rng reference_rng(77);
    const stats::ConfidenceInterval reference = stats::chunked_bootstrap_mean_ci(
        diffs, lift, reference_rng, kReplicates, kLevel);
    ASSERT_GT(reference.lower, 0.0); // the candidate is genuinely better

    const PredictionMatrix qhat = PredictionMatrix::build(model, trace);
    const auto bits = [](double x) {
        std::uint64_t u = 0;
        std::memcpy(&u, &x, sizeof u);
        return u;
    };
    for (int l = 0; l < simd::kNumLevels; ++l) {
        const auto level = static_cast<simd::Level>(l);
        if (level > simd::detected_level()) break;
        for (const std::size_t threads : {1ul, 8ul}) {
            simd::set_active_level(level);
            par::set_thread_count(threads);
            stats::Rng report_rng(77);
            const ImprovementReport report = certify_improvement(
                trace, logging, good, qhat, report_rng, kReplicates, kLevel);
            const std::string where = std::string(simd::level_name(level)) +
                                      " threads=" + std::to_string(threads);
            EXPECT_EQ(bits(report.incumbent_value), bits(incumbent_dr.value))
                << where;
            EXPECT_EQ(bits(report.candidate_value), bits(candidate_dr.value))
                << where;
            EXPECT_EQ(bits(report.estimated_lift), bits(lift)) << where;
            EXPECT_EQ(bits(report.lift_ci.point), bits(lift)) << where;
            EXPECT_EQ(bits(report.lift_ci.lower), bits(reference.lower)) << where;
            EXPECT_EQ(bits(report.lift_ci.upper), bits(reference.upper)) << where;
            EXPECT_EQ(report.lift_ci.level, kLevel) << where;
            EXPECT_TRUE(report.certified) << where;
            // Both advance the caller's generator exactly once.
            EXPECT_EQ(report_rng.state(), reference_rng.state()) << where;
        }
    }
}

TEST(ParsePolicySpec, GreedyAcceptsOptionalEpsilon) {
    SplitEnv env;
    stats::Rng rng(6);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 800, rng);

    const auto plain = parse_policy_spec("greedy:linear", trace, 2);
    const auto smoothed = parse_policy_spec("greedy:linear:0.2", trace, 2);
    const ClientContext c({0.8}, {});
    const auto plain_probs = plain->action_probabilities(c);
    const auto smoothed_probs = smoothed->action_probabilities(c);
    // Same fitted argmax, epsilon/2 mass shifted to the other arm.
    EXPECT_DOUBLE_EQ(plain_probs[1], 1.0);
    EXPECT_DOUBLE_EQ(smoothed_probs[1], 0.8 + 0.1);
    EXPECT_DOUBLE_EQ(smoothed_probs[0], 0.1);
    // Zero epsilon spec matches the two-field form exactly.
    const auto zero = parse_policy_spec("greedy:linear:0", trace, 2);
    EXPECT_EQ(zero->action_probabilities(c), plain_probs);
}

TEST(ParsePolicySpec, RejectsMalformedEpsilon) {
    SplitEnv env;
    stats::Rng rng(6);
    UniformRandomPolicy logging(2);
    const Trace trace = collect_trace(env, logging, 200, rng);

    for (const char* spec :
         {"greedy:linear:", "greedy:linear:abc", "greedy:linear:0.1x",
          "greedy:linear:-0.1", "greedy:linear:1.5", "greedy:linear:nan",
          "greedy:bogus:0.1"}) {
        EXPECT_THROW((void)parse_policy_spec(spec, trace, 2),
                     std::invalid_argument)
            << spec;
    }
}

} // namespace
} // namespace dre::core
