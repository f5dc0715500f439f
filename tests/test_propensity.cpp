#include "core/propensity.h"

#include <gtest/gtest.h>

#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

LoggedTuple tuple(ClientContext::Categorical cat, Decision d,
                  double reward = 0.0) {
    LoggedTuple t;
    t.context.categorical = std::move(cat);
    t.decision = d;
    t.reward = reward;
    t.propensity = 0.5;
    return t;
}

TEST(TabularPropensity, RecoversPerContextFrequencies) {
    Trace trace;
    for (int i = 0; i < 80; ++i) trace.add(tuple({0}, 0));
    for (int i = 0; i < 20; ++i) trace.add(tuple({0}, 1));
    for (int i = 0; i < 50; ++i) trace.add(tuple({1}, 1));
    TabularPropensityModel model(2, /*smoothing=*/0.0, /*floor=*/1e-6);
    model.fit(trace);
    EXPECT_NEAR(model.probability(ClientContext({}, {0}), 0), 0.8, 1e-9);
    EXPECT_NEAR(model.probability(ClientContext({}, {0}), 1), 0.2, 1e-9);
    EXPECT_NEAR(model.probability(ClientContext({}, {1}), 1), 1.0, 1e-9);
}

TEST(TabularPropensity, SmoothingPullsTowardUniform) {
    Trace trace;
    for (int i = 0; i < 10; ++i) trace.add(tuple({0}, 0));
    TabularPropensityModel smoothed(2, /*smoothing=*/5.0);
    smoothed.fit(trace);
    const double p = smoothed.probability(ClientContext({}, {0}), 1);
    EXPECT_GT(p, 0.1); // 5/(10+10) = 0.25 with smoothing, 0 without
    EXPECT_LT(p, 0.5);
}

TEST(TabularPropensity, UnseenContextUsesMarginals) {
    Trace trace;
    for (int i = 0; i < 30; ++i) trace.add(tuple({0}, 0));
    for (int i = 0; i < 10; ++i) trace.add(tuple({0}, 1));
    TabularPropensityModel model(2, 0.0, 1e-6);
    model.fit(trace);
    EXPECT_NEAR(model.probability(ClientContext({}, {42}), 0), 0.75, 1e-9);
}

TEST(TabularPropensity, FloorKeepsProbabilitiesPositive) {
    Trace trace;
    for (int i = 0; i < 100; ++i) trace.add(tuple({0}, 0));
    TabularPropensityModel model(2, 0.0, 0.01);
    model.fit(trace);
    EXPECT_GE(model.probability(ClientContext({}, {0}), 1), 0.01);
}

TEST(TabularPropensity, Validation) {
    EXPECT_THROW(TabularPropensityModel(0), std::invalid_argument);
    EXPECT_THROW(TabularPropensityModel(2, -1.0), std::invalid_argument);
    EXPECT_THROW(TabularPropensityModel(2, 1.0, 0.0), std::invalid_argument);
    TabularPropensityModel model(2);
    EXPECT_THROW(model.probability(ClientContext{}, 0), std::logic_error);
}

// A fit that throws leaves the previous fit in place: fit one context
// logged 6 times at decision 0 and 3 times at decision 1, then refit on a
// trace whose last tuple logs decision 5 of 2. validate_trace lets that
// tuple through, so the throw comes from the fit's loop, after it has
// counted 20 tuples at decision 0.
template <typename Model>
void expect_failed_refit_keeps_previous_fit(Model& model) {
    const ClientContext c({}, {0});
    Trace good;
    for (int i = 0; i < 9; ++i) good.add(tuple({0}, i < 6 ? 0 : 1));
    model.fit(good);
    const double before0 = model.probability(c, 0);
    const double before1 = model.probability(c, 1);
    EXPECT_NEAR(before1, 1.0 / 3.0, 0.05);

    Trace bad;
    for (int i = 0; i < 20; ++i) bad.add(tuple({0}, 0));
    bad.add(tuple({0}, 5));
    EXPECT_THROW(model.fit(bad), std::out_of_range);
    EXPECT_EQ(model.probability(c, 0), before0);
    EXPECT_EQ(model.probability(c, 1), before1);
}

TEST(TabularPropensity, FailedRefitKeepsPreviousFit) {
    TabularPropensityModel model(2);
    expect_failed_refit_keeps_previous_fit(model);
}

TEST(LogisticPropensity, FailedRefitKeepsPreviousFit) {
    LogisticPropensityModel model(2);
    expect_failed_refit_keeps_previous_fit(model);
}

TEST(LogisticPropensity, LearnsContextDependentLogging) {
    // Logging policy: P(d=1|x) = sigmoid(3x).
    stats::Rng rng(1);
    Trace trace;
    for (int i = 0; i < 4000; ++i) {
        const double x = rng.uniform(-2.0, 2.0);
        const double p1 = stats::sigmoid(3.0 * x);
        LoggedTuple t;
        t.context.numeric = {x};
        t.decision = rng.bernoulli(p1) ? 1 : 0;
        t.propensity = t.decision == 1 ? p1 : 1.0 - p1;
        trace.add(std::move(t));
    }
    LogisticPropensityModel model(2);
    model.fit(trace);
    EXPECT_GT(model.probability(ClientContext({1.5}, {}), 1), 0.8);
    EXPECT_LT(model.probability(ClientContext({-1.5}, {}), 1), 0.2);
    const auto dist = model.distribution(ClientContext({0.0}, {}));
    EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-9);
}

TEST(LogisticPropensity, DegenerateDecisionFallsBackToMarginal) {
    Trace trace;
    for (int i = 0; i < 50; ++i) {
        LoggedTuple t;
        t.context.numeric = {static_cast<double>(i)};
        t.decision = 0; // decision 1 never logged
        trace.add(std::move(t));
    }
    LogisticPropensityModel model(2);
    model.fit(trace);
    const auto dist = model.distribution(ClientContext({3.0}, {}));
    EXPECT_GT(dist[0], dist[1]);
    EXPECT_GT(dist[1], 0.0); // floored, not zero
}

TEST(WithEstimatedPropensities, RewritesPropensityField) {
    stats::Rng rng(2);
    Trace trace;
    for (int i = 0; i < 200; ++i) {
        LoggedTuple t = tuple({static_cast<std::int32_t>(i % 2)},
                              static_cast<Decision>(rng.uniform_index(2)));
        t.propensity = 0.123; // wrong on purpose
        trace.add(std::move(t));
    }
    TabularPropensityModel model(2);
    model.fit(trace);
    const Trace rewritten = with_estimated_propensities(trace, model);
    ASSERT_EQ(rewritten.size(), trace.size());
    for (std::size_t i = 0; i < rewritten.size(); ++i) {
        EXPECT_NE(rewritten[i].propensity, 0.123);
        EXPECT_DOUBLE_EQ(
            rewritten[i].propensity,
            model.probability(trace[i].context, trace[i].decision));
    }
}

} // namespace
} // namespace dre::core
