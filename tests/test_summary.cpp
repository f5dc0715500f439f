#include "stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dre::stats {
namespace {

TEST(Accumulator, EmptyDefaults) {
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.standard_error(), 0.0);
}

TEST(Accumulator, KnownValues) {
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0); // classic population-variance example
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, SampleVarianceUsesNMinusOne) {
    Accumulator acc;
    acc.add(1.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 1.0);
    EXPECT_DOUBLE_EQ(acc.sample_variance(), 2.0);
}

TEST(BatchStats, MeanVarianceQuantiles) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_DOUBLE_EQ(variance(xs), 2.0);
    EXPECT_DOUBLE_EQ(sample_variance(xs), 2.5);
    EXPECT_DOUBLE_EQ(median(xs), 3.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.125), 1.5); // interpolation
}

TEST(BatchStats, EmptyInputsThrow) {
    const std::vector<double> empty;
    EXPECT_THROW(mean(empty), std::invalid_argument);
    EXPECT_THROW(variance(empty), std::invalid_argument);
    EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
    EXPECT_THROW(summarize(empty), std::invalid_argument);
}

TEST(BatchStats, QuantileRejectsBadQ) {
    const std::vector<double> xs{1.0, 2.0};
    EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
    EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

TEST(BatchStats, SummarizeConsistent) {
    const std::vector<double> xs{4.0, 1.0, 3.0, 2.0, 5.0};
    const Summary s = summarize(xs);
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.p25, 2.0);
    EXPECT_DOUBLE_EQ(s.p75, 4.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

} // namespace
} // namespace dre::stats
