#include "stats/hypothesis.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.h"

namespace dre::stats {
namespace {

TEST(NormalCdf, KnownValues) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(MannWhitney, DetectsClearSeparation) {
    Rng rng(1);
    std::vector<double> low(40), high(40);
    for (double& x : low) x = rng.normal(0.0, 1.0);
    for (double& x : high) x = rng.normal(3.0, 1.0);
    const RankSumResult result = mann_whitney_u(low, high);
    EXPECT_LT(result.p_value_less, 0.001);       // low < high strongly
    EXPECT_LT(result.p_value_two_sided, 0.001);
}

TEST(MannWhitney, NoSignalForIdenticalDistributions) {
    Rng rng(2);
    int rejections = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> a(30), b(30);
        for (double& x : a) x = rng.normal(0.0, 1.0);
        for (double& x : b) x = rng.normal(0.0, 1.0);
        rejections += mann_whitney_u(a, b).p_value_two_sided < 0.05;
    }
    // ~5% false positives expected.
    EXPECT_LE(rejections, 15);
}

TEST(MannWhitney, TiesHandledGracefully) {
    const std::vector<double> a{1.0, 1.0, 1.0};
    const std::vector<double> b{1.0, 1.0, 1.0};
    const RankSumResult result = mann_whitney_u(a, b);
    EXPECT_DOUBLE_EQ(result.p_value_two_sided, 1.0);
    EXPECT_DOUBLE_EQ(result.p_value_less, 0.5);
}

TEST(MannWhitney, SymmetricInDirection) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{4.0, 5.0, 6.0};
    const RankSumResult ab = mann_whitney_u(a, b);
    const RankSumResult ba = mann_whitney_u(b, a);
    EXPECT_NEAR(ab.p_value_less + ba.p_value_less, 1.0, 1e-9);
    EXPECT_THROW(mann_whitney_u({}, b), std::invalid_argument);
}

} // namespace
} // namespace dre::stats
