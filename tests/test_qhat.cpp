// The PredictionMatrix contract: estimators reading q̂ from the shared
// matrix are bit-identical to estimators querying the reward model directly
// — same values, same per-tuple contributions. EXPECT_EQ on raw doubles.
#include "core/qhat.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/estimators.h"
#include "core/evaluator.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

Trace random_trace(std::size_t n, std::size_t num_decisions, stats::Rng& rng) {
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        LoggedTuple t;
        t.context.numeric = {rng.normal(), rng.uniform(0.0, 4.0)};
        t.context.categorical = {static_cast<std::int32_t>(rng.uniform_index(3))};
        t.decision = static_cast<Decision>(rng.uniform_index(num_decisions));
        t.propensity = 1.0 / static_cast<double>(num_decisions);
        t.reward = rng.normal(1.0, 2.0) +
                   0.5 * static_cast<double>(t.decision) * t.context.numeric[0];
        trace.add(std::move(t));
    }
    return trace;
}

void expect_identical(const EstimateResult& a, const EstimateResult& b) {
    EXPECT_EQ(a.value, b.value) << a.estimator;
    ASSERT_EQ(a.per_tuple.size(), b.per_tuple.size());
    for (std::size_t k = 0; k < a.per_tuple.size(); ++k)
        EXPECT_EQ(a.per_tuple[k], b.per_tuple[k]) << a.estimator << " tuple " << k;
    EXPECT_EQ(a.estimator, b.estimator);
}

TEST(PredictionMatrix, StoresModelOutputsVerbatim) {
    stats::Rng rng(31);
    const Trace trace = random_trace(200, 3, rng);
    KnnRewardModel model(3, 5);
    model.fit(trace);
    const PredictionMatrix qhat = PredictionMatrix::build(model, trace);
    ASSERT_EQ(qhat.num_tuples(), trace.size());
    ASSERT_EQ(qhat.num_decisions(), 3u);
    for (std::size_t k = 0; k < trace.size(); k += 17)
        for (std::size_t d = 0; d < 3; ++d)
            EXPECT_EQ(qhat.at(k, d),
                      model.predict(trace[k].context, static_cast<Decision>(d)));
}

TEST(PredictionMatrix, EstimatorsMatchModelPathBitwise) {
    stats::Rng rng(32);
    const Trace trace = random_trace(400, 3, rng);
    KnnRewardModel model(3, 7);
    model.fit(trace);
    const PredictionMatrix qhat = PredictionMatrix::build(model, trace);

    // A stochastic policy (all decisions possible) and a deterministic one
    // (zero-probability decisions exercise the skip rule in the DM sum).
    const auto base = std::make_shared<DeterministicPolicy>(
        3, [](const ClientContext& c) {
            return static_cast<Decision>(c.numeric[0] > 0.0 ? 1 : 2);
        });
    const EpsilonGreedyPolicy stochastic(base, 0.2);
    const DeterministicPolicy& deterministic = *base;
    EstimatorOptions options;
    options.weight_clip = 2.0;
    options.switch_threshold = 2.5;

    for (const Policy* policy :
         {static_cast<const Policy*>(&stochastic),
          static_cast<const Policy*>(&deterministic)}) {
        expect_identical(direct_method(trace, *policy, model),
                         direct_method(trace, *policy, qhat));
        expect_identical(doubly_robust(trace, *policy, model),
                         doubly_robust(trace, *policy, qhat));
        expect_identical(clipped_doubly_robust(trace, *policy, model, options),
                         clipped_doubly_robust(trace, *policy, qhat, options));
        expect_identical(switch_doubly_robust(trace, *policy, model, options),
                         switch_doubly_robust(trace, *policy, qhat, options));
        expect_identical(self_normalized_doubly_robust(trace, *policy, model),
                         self_normalized_doubly_robust(trace, *policy, qhat));
    }
}

TEST(PredictionMatrix, MismatchedInputsAreRejected) {
    stats::Rng rng(33);
    const Trace trace = random_trace(50, 2, rng);
    TabularRewardModel model(2);
    model.fit(trace);
    const PredictionMatrix qhat = PredictionMatrix::build(model, trace);
    UniformRandomPolicy policy3(3); // decision space mismatch
    EXPECT_THROW(direct_method(trace, policy3, qhat), std::invalid_argument);
    const Trace other = random_trace(49, 2, rng); // size mismatch
    UniformRandomPolicy policy2(2);
    EXPECT_THROW(direct_method(other, policy2, qhat), std::invalid_argument);
}

TEST(PredictionMatrix, EvaluatorUsesSharedMatrix) {
    stats::Rng rng(34);
    Trace trace = random_trace(300, 3, rng);
    EvaluationConfig config;
    config.reward_model = RewardModelKind::kKnn;
    const Evaluator evaluator(trace, config, stats::Rng(7));
    const PredictionMatrix& qhat = evaluator.prediction_matrix();
    ASSERT_EQ(qhat.num_tuples(), evaluator.evaluation_trace().size());

    // Evaluator results (matrix path) equal the hand-run model path. The
    // Evaluator keeps only DR's per-tuple contributions, so DM compares by
    // value; per-tuple matrix-vs-model equality is covered above.
    UniformRandomPolicy policy(3);
    const PolicyEvaluation eval = evaluator.evaluate(policy);
    const EstimateResult dm = direct_method(evaluator.evaluation_trace(),
                                            policy, evaluator.reward_model());
    EXPECT_EQ(eval.dm.value, dm.value);
    EXPECT_EQ(eval.dm.estimator, dm.estimator);
    expect_identical(
        eval.dr, doubly_robust(evaluator.evaluation_trace(), policy,
                               evaluator.reward_model()));
}

} // namespace
} // namespace dre::core
