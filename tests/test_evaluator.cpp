#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/diagnostics.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/parallel.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

// E[r | x, d]: decision 1 is better iff x > 0.
class SplitEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0)}, {});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        const double mean = d == 1 ? c.numeric[0] : -c.numeric[0];
        return mean + rng.normal(0.0, 0.3);
    }
    std::size_t num_decisions() const noexcept override { return 2; }
};

Trace make_trace(std::size_t n, std::uint64_t seed) {
    SplitEnv env;
    stats::Rng rng(seed);
    UniformRandomPolicy logging(2);
    return collect_trace(env, logging, n, rng);
}

TEST(Evaluator, RunsFullEstimatorSuite) {
    EvaluationConfig config;
    config.reward_model = RewardModelKind::kLinear;
    Evaluator evaluator(make_trace(2000, 1), config, stats::Rng(2));

    DeterministicPolicy target(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    const PolicyEvaluation result = evaluator.evaluate(target);
    // Analytic truth: E[|x|] = 0.5.
    EXPECT_NEAR(result.dr.value, 0.5, 0.08);
    EXPECT_NEAR(result.ips.value, 0.5, 0.1);
    EXPECT_NEAR(result.dm.value, 0.5, 0.1);
    EXPECT_NEAR(result.snips.value, 0.5, 0.1);
    EXPECT_NEAR(result.switch_dr.value, 0.5, 0.1);
    EXPECT_DOUBLE_EQ(result.value(), result.dr.value);
    EXPECT_GT(result.overlap.effective_sample_size, 0.0);
    EXPECT_FALSE(result.dr_ci.has_value()); // disabled by default
}

TEST(Evaluator, ConfidenceIntervalWhenRequested) {
    EvaluationConfig config;
    config.ci_replicates = 300;
    Evaluator evaluator(make_trace(1000, 3), config, stats::Rng(4));
    UniformRandomPolicy target(2);
    const PolicyEvaluation result = evaluator.evaluate(target);
    ASSERT_TRUE(result.dr_ci.has_value());
    EXPECT_TRUE(result.dr_ci->contains(result.dr.value));
}

TEST(Evaluator, CrossFitSplitsTrace) {
    EvaluationConfig config;
    config.cross_fit = true;
    const Trace trace = make_trace(2000, 5);
    Evaluator evaluator(trace, config, stats::Rng(6));
    EXPECT_LT(evaluator.evaluation_trace().size(), trace.size());
    EXPECT_GT(evaluator.evaluation_trace().size(), 500u);
    // Estimates still sane on the holdout.
    DeterministicPolicy target(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    EXPECT_NEAR(evaluator.evaluate(target).dr.value, 0.5, 0.1);
}

TEST(Evaluator, EstimatedPropensitiesReplaceLoggedOnes) {
    Trace trace = make_trace(1500, 7);
    for (auto& t : trace) t.propensity = 0.9; // corrupt the logs
    EvaluationConfig config;
    config.estimate_propensities = true;
    Evaluator evaluator(trace, config, stats::Rng(8));
    UniformRandomPolicy target(2);
    // With re-estimated propensities (~0.5) IPS recovers the truth (0).
    EXPECT_NEAR(evaluator.evaluate(target).ips.value, 0.0, 0.1);
}

TEST(Evaluator, CompareSelectsBestPolicy) {
    Evaluator evaluator(make_trace(3000, 9), EvaluationConfig{}, stats::Rng(10));
    DeterministicPolicy good(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 0);
    });
    DeterministicPolicy bad(2, [](const ClientContext& c) {
        return static_cast<Decision>(c.numeric[0] > 0.0 ? 0 : 1);
    });
    UniformRandomPolicy meh(2);
    const auto comparison = evaluator.compare({&bad, &meh, &good});
    EXPECT_EQ(comparison.best_index, 2u);
    EXPECT_EQ(comparison.evaluations.size(), 3u);
    EXPECT_THROW(evaluator.compare({}), std::invalid_argument);
    EXPECT_THROW(evaluator.compare({nullptr}), std::invalid_argument);
}

TEST(Evaluator, Validation) {
    EXPECT_THROW(Evaluator(Trace{}, EvaluationConfig{}, stats::Rng(1)),
                 std::invalid_argument);
}

// Six decisions whose rewards depend on the context, so q̂ rows are dense
// and the importance weights of the policies below spread widely.
class WideEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0), rng.normal()},
                             {static_cast<std::int32_t>(rng.uniform_index(3))});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        const double x = c.numeric[0];
        return std::sin(static_cast<double>(d) * x) + 0.3 * c.numeric[1] +
               rng.normal(0.0, 0.5);
    }
    std::size_t num_decisions() const noexcept override { return 6; }
};

// The engine's independent reference: the six whole-trace estimator
// functions over the Evaluator's cached trace and q̂ matrix, then the
// chunked bootstrap over DR's per-tuple contributions (the Evaluator's
// composition before it drove the engine). The engine must reproduce it
// bit for bit.
PolicyEvaluation whole_trace_reference(const Evaluator& evaluator,
                                       const Policy& policy,
                                       const EstimatorOptions& options,
                                       stats::Rng rng, int ci_replicates) {
    const Trace& trace = evaluator.evaluation_trace();
    const PredictionMatrix& qhat = evaluator.prediction_matrix();
    PolicyEvaluation out;
    out.dm = direct_method(trace, policy, qhat);
    out.ips = inverse_propensity(trace, policy);
    out.snips = self_normalized_ips(trace, policy);
    out.dr = doubly_robust(trace, policy, qhat);
    out.switch_dr = switch_doubly_robust(trace, policy, qhat, options);
    out.overlap = overlap_diagnostics(trace, policy);
    if (ci_replicates > 0)
        out.dr_ci = stats::chunked_bootstrap_mean_ci(
            out.dr.per_tuple, out.dr.value, rng, ci_replicates, 0.95);
    return out;
}

void expect_same_bits(const PolicyEvaluation& got, const PolicyEvaluation& want,
                      const std::string& label) {
    for (const auto& [a, b] :
         {std::pair{&got.dm, &want.dm}, std::pair{&got.ips, &want.ips},
          std::pair{&got.snips, &want.snips}, std::pair{&got.dr, &want.dr},
          std::pair{&got.switch_dr, &want.switch_dr}}) {
        EXPECT_EQ(a->value, b->value) << label << " " << b->estimator;
        EXPECT_EQ(a->estimator, b->estimator) << label;
    }
    EXPECT_EQ(got.dr.per_tuple, want.dr.per_tuple) << label;
    const OverlapDiagnostics& o = got.overlap;
    const OverlapDiagnostics& w = want.overlap;
    EXPECT_EQ(o.effective_sample_size, w.effective_sample_size) << label;
    EXPECT_EQ(o.effective_sample_fraction, w.effective_sample_fraction) << label;
    EXPECT_EQ(o.max_weight, w.max_weight) << label;
    EXPECT_EQ(o.mean_weight, w.mean_weight) << label;
    EXPECT_EQ(o.weight_cv, w.weight_cv) << label;
    EXPECT_EQ(o.zero_weight_fraction, w.zero_weight_fraction) << label;
    EXPECT_EQ(o.n, w.n) << label;
    ASSERT_EQ(got.dr_ci.has_value(), want.dr_ci.has_value()) << label;
    if (want.dr_ci) {
        EXPECT_EQ(got.dr_ci->point, want.dr_ci->point) << label;
        EXPECT_EQ(got.dr_ci->lower, want.dr_ci->lower) << label;
        EXPECT_EQ(got.dr_ci->upper, want.dr_ci->upper) << label;
        EXPECT_EQ(got.dr_ci->level, want.dr_ci->level) << label;
    }
}

class ThreadCountGuard {
public:
    ThreadCountGuard() : saved_(par::thread_count()) {}
    ~ThreadCountGuard() { par::set_thread_count(saved_); }

private:
    std::size_t saved_;
};

TEST(Evaluator, EngineMatchesWholeTraceEstimatorsBitwise) {
    ThreadCountGuard guard;
    // 9000 tuples: two full 4096-tuple chunks and a ragged 808-tuple one.
    WideEnv env;
    stats::Rng trace_rng(21);
    const SoftmaxPolicy logging(6, [](const ClientContext& c, Decision d) {
        return 0.8 * static_cast<double>(d) * c.numeric[0];
    });
    EvaluationConfig config;
    config.reward_model = RewardModelKind::kLinear;
    // Low enough that many weights exceed it: SWITCH-DR falls back there.
    config.estimator_options.switch_threshold = 1.5;
    const Evaluator evaluator(collect_trace(env, logging, 9000, trace_rng),
                              config, stats::Rng(22));
    ASSERT_EQ(evaluator.evaluation_trace().size(), 9000u);

    const auto deterministic = std::make_shared<DeterministicPolicy>(
        6, [](const ClientContext& c) {
            return static_cast<Decision>(c.numeric[0] > 0.0 ? 5 : c.categorical[0]);
        });
    const SoftmaxPolicy stochastic(6, [](const ClientContext& c, Decision d) {
        return -0.6 * static_cast<double>(d) * c.numeric[0] + 0.2 * c.numeric[1];
    });
    const EpsilonGreedyPolicy mixed(deterministic, 0.1);
    std::size_t fallbacks = 0;
    for (const Policy* policy :
         {static_cast<const Policy*>(deterministic.get()),
          static_cast<const Policy*>(&stochastic),
          static_cast<const Policy*>(&mixed)}) {
        const EstimateResult dr =
            doubly_robust(evaluator.evaluation_trace(), *policy,
                          evaluator.prediction_matrix());
        const EstimateResult sw = switch_doubly_robust(
            evaluator.evaluation_trace(), *policy,
            evaluator.prediction_matrix(), config.estimator_options);
        for (std::size_t k = 0; k < dr.per_tuple.size(); ++k)
            if (dr.per_tuple[k] != sw.per_tuple[k]) ++fallbacks;
    }
    ASSERT_GT(fallbacks, 0u) << "the SWITCH threshold never fired";

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        par::set_thread_count(threads);
        const std::string at = "threads=" + std::to_string(threads);
        for (const int ci : {0, 200}) {
            expect_same_bits(
                evaluator.evaluate_seeded(*deterministic, stats::Rng(5), ci),
                whole_trace_reference(evaluator, *deterministic,
                                      config.estimator_options, stats::Rng(5),
                                      ci),
                at + " deterministic ci=" + std::to_string(ci));
            expect_same_bits(
                evaluator.evaluate_seeded(stochastic, stats::Rng(6), ci),
                whole_trace_reference(evaluator, stochastic,
                                      config.estimator_options, stats::Rng(6),
                                      ci),
                at + " stochastic ci=" + std::to_string(ci));
        }
        // compare() runs the same sweep nested under its own parallel_for,
        // one split stream per policy off the evaluator's shared generator.
        EvaluationConfig with_ci = config;
        with_ci.ci_replicates = 100;
        const Evaluator comparing(evaluator.evaluation_trace(), with_ci,
                                  stats::Rng(23));
        const Evaluator::Comparison comparison =
            comparing.compare({deterministic.get(), &stochastic, &mixed});
        stats::Rng shared(23);
        const stats::Rng base = shared.split();
        const std::vector<const Policy*> policies = {deterministic.get(),
                                                     &stochastic, &mixed};
        for (std::size_t i = 0; i < policies.size(); ++i)
            expect_same_bits(comparison.evaluations[i],
                             whole_trace_reference(comparing, *policies[i],
                                                   config.estimator_options,
                                                   base.split(i), 100),
                             at + " compare #" + std::to_string(i));
    }
}

TEST(Evaluator, RejectsWhatTheWholeTraceEstimatorsReject) {
    const Trace trace = make_trace(500, 11);
    UniformRandomPolicy wider(3);  // decision-space mismatch with the model
    UniformRandomPolicy narrower(1);
    const Evaluator evaluator(trace, EvaluationConfig{}, stats::Rng(12));
    EXPECT_THROW(evaluator.evaluate(wider), std::invalid_argument);
    EXPECT_THROW(evaluator.evaluate(narrower), std::invalid_argument);
    EXPECT_THROW(evaluator.compare({&wider}), std::invalid_argument);

    for (const double threshold : {0.0, -1.0}) {
        EvaluationConfig config;
        config.estimator_options.switch_threshold = threshold;
        const Evaluator bad(trace, config, stats::Rng(13));
        UniformRandomPolicy policy(2);
        EXPECT_THROW(bad.evaluate(policy), std::invalid_argument)
            << "threshold " << threshold;
    }
}

// Forwards to a wrapped policy and counts every query of any kind.
class CountingPolicy final : public Policy {
public:
    explicit CountingPolicy(const Policy& inner) : inner_(inner) {}
    std::vector<double> action_probabilities(
        const ClientContext& context) const override {
        ++calls_;
        return inner_.action_probabilities(context);
    }
    void action_probabilities_into(const ClientContext& context,
                                   std::vector<double>& out) const override {
        ++calls_;
        inner_.action_probabilities_into(context, out);
    }
    double probability(const ClientContext& context, Decision d) const override {
        ++calls_;
        return inner_.probability(context, d);
    }
    std::size_t num_decisions() const noexcept override {
        return inner_.num_decisions();
    }
    std::uint64_t calls() const noexcept { return calls_.load(); }

private:
    const Policy& inner_;
    mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(Evaluator, AsksThePolicyOncePerTuple) {
    const Evaluator evaluator(make_trace(5000, 14), EvaluationConfig{},
                              stats::Rng(15));
    const UniformRandomPolicy uniform(2);
    const CountingPolicy counting(uniform);
    (void)evaluator.evaluate_seeded(counting, stats::Rng(16), 50);
    EXPECT_EQ(counting.calls(), 5000u);
}

} // namespace
} // namespace dre::core
