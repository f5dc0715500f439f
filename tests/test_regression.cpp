#include "stats/regression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace dre::stats {
namespace {

TEST(LinearRegression, RecoversExactLinearFunction) {
    // y = 2x0 - 3x1 + 5, no noise.
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        const double x0 = rng.uniform(-5.0, 5.0);
        const double x1 = rng.uniform(-5.0, 5.0);
        rows.push_back({x0, x1});
        targets.push_back(2.0 * x0 - 3.0 * x1 + 5.0);
    }
    LinearRegression model;
    model.fit(rows, targets);
    EXPECT_NEAR(model.weights()[0], 2.0, 1e-6);
    EXPECT_NEAR(model.weights()[1], -3.0, 1e-6);
    EXPECT_NEAR(model.intercept(), 5.0, 1e-6);
    EXPECT_NEAR(model.predict(std::vector<double>{1.0, 1.0}), 4.0, 1e-6);
}

TEST(LinearRegression, NoisyFitIsClose) {
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(-2.0, 2.0);
        rows.push_back({x});
        targets.push_back(1.5 * x - 0.5 + rng.normal(0.0, 0.3));
    }
    LinearRegression model;
    model.fit(rows, targets);
    EXPECT_NEAR(model.weights()[0], 1.5, 0.05);
    EXPECT_NEAR(model.intercept(), -0.5, 0.05);
}

TEST(LinearRegression, RidgeShrinksWeights) {
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        rows.push_back({x});
        targets.push_back(4.0 * x);
    }
    LinearRegression loose, tight;
    loose.fit(rows, targets, 1e-8);
    tight.fit(rows, targets, 1e3);
    EXPECT_GT(std::fabs(loose.weights()[0]), std::fabs(tight.weights()[0]));
}

TEST(LinearRegression, HandlesDegenerateConstantFeature) {
    // A constant feature column is collinear with the intercept; ridge keeps
    // the system solvable.
    std::vector<std::vector<double>> rows{{1.0}, {1.0}, {1.0}};
    std::vector<double> targets{2.0, 2.0, 2.0};
    LinearRegression model;
    EXPECT_NO_THROW(model.fit(rows, targets, 1e-4));
    EXPECT_NEAR(model.predict(std::vector<double>{1.0}), 2.0, 1e-6);
}

// predict() adds the products w[i] * x[i] in the canonical 8-lane order of
// src/simd/simd.h: product i into lane i mod 8, then the fixed tree
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then the intercept. 19 features
// cover two whole blocks of 8 and a ragged tail of 3.
TEST(LinearRegression, PredictSumsInTheCanonicalLaneOrder) {
    constexpr std::size_t kFeatures = 19;
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    Rng rng(19);
    for (int r = 0; r < 200; ++r) {
        std::vector<double> row(kFeatures);
        double y = 0.5;
        for (std::size_t i = 0; i < kFeatures; ++i) {
            row[i] = rng.uniform(-1.0, 1.0);
            y += static_cast<double>(i + 1) * row[i];
        }
        rows.push_back(row);
        targets.push_back(y);
    }
    LinearRegression model;
    model.fit(rows, targets);
    const std::span<const double> w = model.weights();
    const auto lanes8 = [&](const std::vector<double>& x) {
        double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (std::size_t i = 0; i < kFeatures; ++i) acc[i % 8] += w[i] * x[i];
        return model.intercept() + (((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                                    ((acc[4] + acc[5]) + (acc[6] + acc[7])));
    };
    const auto left_fold = [&](const std::vector<double>& x) {
        double sum = 0.0;
        for (std::size_t i = 0; i < kFeatures; ++i) sum += w[i] * x[i];
        return model.intercept() + sum;
    };
    // Products of about 2^60 and -2^60 at features 0 and 8 (both lane 0)
    // and about 1 at feature 1. Lane 0 cancels the big pair before the 1
    // joins; a left fold adds the 1 to 2^60 first, where it rounds away.
    std::vector<double> crafted(kFeatures, 0.0);
    crafted[0] = 0x1p60 / w[0];
    crafted[1] = 1.0 / w[1];
    crafted[8] = -0x1p60 / w[8];
    for (const std::vector<double>& x : {rows[0], rows[1], crafted})
        EXPECT_EQ(std::bit_cast<std::uint64_t>(model.predict(x)),
                  std::bit_cast<std::uint64_t>(lanes8(x)));
    EXPECT_NE(model.predict(crafted), left_fold(crafted));
}

TEST(LinearRegression, InputValidation) {
    LinearRegression model;
    EXPECT_THROW(model.fit({}, std::vector<double>{}), std::invalid_argument);
    EXPECT_THROW(model.fit({{1.0}}, std::vector<double>{1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(model.fit({{1.0}, {1.0, 2.0}}, std::vector<double>{1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(model.predict(std::vector<double>{1.0}), std::logic_error);
    model.fit({{1.0}, {2.0}}, std::vector<double>{1.0, 2.0});
    EXPECT_THROW(model.predict(std::vector<double>{1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Sigmoid, SymmetricAndBounded) {
    EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
    EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
    EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
    EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(LogisticRegression, SeparatesLinearlySeparableData) {
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    Rng rng(4);
    for (int i = 0; i < 400; ++i) {
        const double x = rng.uniform(-4.0, 4.0);
        rows.push_back({x});
        labels.push_back(x > 0.5 ? 1 : 0);
    }
    LogisticRegression model;
    model.fit(rows, labels);
    EXPECT_GT(model.predict(std::vector<double>{3.0}), 0.9);
    EXPECT_LT(model.predict(std::vector<double>{-3.0}), 0.1);
}

TEST(LogisticRegression, RecoversProbabilisticBoundary) {
    // True model: P(y=1|x) = sigmoid(2x - 1).
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    Rng rng(5);
    for (int i = 0; i < 8000; ++i) {
        const double x = rng.uniform(-3.0, 3.0);
        rows.push_back({x});
        labels.push_back(rng.bernoulli(sigmoid(2.0 * x - 1.0)) ? 1 : 0);
    }
    LogisticRegression model;
    model.fit(rows, labels);
    EXPECT_NEAR(model.weights()[0], 2.0, 0.25);
    EXPECT_NEAR(model.intercept(), -1.0, 0.2);
    EXPECT_NEAR(model.predict(std::vector<double>{0.5}), 0.5, 0.05);
}

TEST(LogisticRegression, InputValidation) {
    LogisticRegression model;
    EXPECT_THROW(model.fit({}, std::vector<int>{}), std::invalid_argument);
    EXPECT_THROW(model.predict(std::vector<double>{0.0}), std::logic_error);
}

} // namespace
} // namespace dre::stats
