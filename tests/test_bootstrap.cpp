#include "stats/bootstrap.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/parallel.h"
#include "stats/summary.h"

namespace dre::stats {
namespace {

// The point is the caller's full-sample statistic, reported verbatim, and
// the percentile interval brackets it.
TEST(Bootstrap, PointEstimateIsFullSampleStatistic) {
    Rng rng(1);
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    const ConfidenceInterval ci = chunked_bootstrap_mean_ci(xs, mean(xs), rng, 200);
    EXPECT_EQ(ci.point, 3.0);
    EXPECT_LE(ci.lower, ci.point);
    EXPECT_GE(ci.upper, ci.point);
}

TEST(Bootstrap, CoversTrueMeanMostOfTheTime) {
    Rng rng(2);
    int covered = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> sample(60);
        for (double& x : sample) x = rng.normal(10.0, 2.0);
        const ConfidenceInterval ci =
            chunked_bootstrap_mean_ci(sample, mean(sample), rng, 400, 0.95);
        covered += ci.contains(10.0);
    }
    // Nominal 95%; allow generous Monte-Carlo slack.
    EXPECT_GE(covered, 85);
}

TEST(Bootstrap, WidthShrinksWithSampleSize) {
    Rng rng(3);
    std::vector<double> small(30), large(3000);
    for (double& x : small) x = rng.normal(0.0, 1.0);
    for (double& x : large) x = rng.normal(0.0, 1.0);
    const ConfidenceInterval ci_small =
        chunked_bootstrap_mean_ci(small, mean(small), rng, 400);
    const ConfidenceInterval ci_large =
        chunked_bootstrap_mean_ci(large, mean(large), rng, 400);
    EXPECT_LT(ci_large.width(), ci_small.width());
}

TEST(Bootstrap, InputValidation) {
    Rng rng(5);
    const std::vector<double> xs{1.0, 2.0};
    EXPECT_THROW(chunked_bootstrap_mean_ci(std::vector<double>{}, 0.0, rng),
                 std::invalid_argument);
    EXPECT_THROW(chunked_bootstrap_mean_ci(xs, 1.5, rng, 1),
                 std::invalid_argument);
    EXPECT_THROW(chunked_bootstrap_mean_ci(xs, 1.5, rng, 100, 1.5),
                 std::invalid_argument);
}

// Chunk partials resample within one reduction chunk; a longer span is a
// caller error, not a slow path.
TEST(Bootstrap, ChunkPartialsRejectChunksLongerThanTheReduceChunk) {
    const ChunkedMeanBootstrap bootstrap(Rng(6), 16, 0.95);
    const std::vector<double> values(par::kReduceChunk + 1, 1.0);
    EXPECT_THROW(bootstrap.chunk_partials(0, values), std::invalid_argument);
    const std::vector<double> partials = bootstrap.chunk_partials(
        0, std::span<const double>(values).first(par::kReduceChunk));
    ASSERT_EQ(partials.size(), 16u);
    // Every draw is 1.0, so each replicate sums the chunk length exactly.
    for (const double p : partials)
        EXPECT_EQ(p, static_cast<double>(par::kReduceChunk));
}

} // namespace
} // namespace dre::stats
