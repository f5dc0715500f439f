#include "stats/knn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "obs/obs.h"
#include "stats/rng.h"

namespace dre::stats {
namespace {

TEST(Knn, KOneReproducesTrainingPoints) {
    KnnRegressor knn(1);
    knn.fit({{0.0}, {1.0}, {2.0}}, std::vector<double>{10.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.0}), 10.0);
    EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{2.1}), 30.0);
}

TEST(Knn, AveragesKNeighbours) {
    KnnRegressor knn(2);
    knn.fit({{0.0}, {1.0}, {10.0}}, std::vector<double>{0.0, 2.0, 100.0});
    // Nearest two to 0.4 are 0.0 and 1.0 -> mean 1.0.
    EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.4}), 1.0);
}

TEST(Knn, KLargerThanSampleUsesAll) {
    KnnRegressor knn(10);
    knn.fit({{0.0}, {1.0}}, std::vector<double>{1.0, 3.0});
    EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.5}), 2.0);
}

TEST(Knn, StandardizationBalancesScales) {
    // Feature 1 has a huge scale; without standardization it would dominate.
    // Points: class A at small-x/any-y, class B at large-x. The query is
    // closest to A in standardized space.
    KnnRegressor knn(1);
    knn.fit({{0.0, 0.0}, {1.0, 10000.0}, {10.0, 0.0}},
            std::vector<double>{1.0, 1.0, 5.0});
    EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{1.0, 5000.0}), 1.0);
}

TEST(Knn, ApproximatesSmoothFunction) {
    Rng rng(6);
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (int i = 0; i < 3000; ++i) {
        const double x = rng.uniform(0.0, 6.28);
        rows.push_back({x});
        targets.push_back(std::sin(x) + rng.normal(0.0, 0.05));
    }
    KnnRegressor knn(25);
    knn.fit(rows, targets);
    for (double x : {0.5, 1.5, 3.0, 5.0})
        EXPECT_NEAR(knn.predict(std::vector<double>{x}), std::sin(x), 0.1);
}

// The KD-tree contract: bit-identical to the brute-force reference for any
// query, including exact distance ties (broken by training index) and the
// k > n degenerate case. EXPECT_EQ on raw doubles, no tolerance.
std::vector<double> predict_all(KnnRegressor& knn,
                                const std::vector<std::vector<double>>& queries,
                                KnnRegressor::Algorithm algorithm) {
    knn.set_algorithm(algorithm);
    std::vector<double> out;
    out.reserve(queries.size());
    for (const auto& q : queries) out.push_back(knn.predict(q));
    return out;
}

TEST(Knn, KdTreeMatchesBruteForceOnRandomData) {
    Rng rng(11);
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (int i = 0; i < 2000; ++i) {
        rows.push_back({rng.normal(), rng.normal(), rng.uniform(0.0, 3.0),
                        rng.lognormal(0.0, 0.5)});
        targets.push_back(rng.normal(0.0, 10.0));
    }
    std::vector<std::vector<double>> queries;
    for (int i = 0; i < 300; ++i)
        queries.push_back({rng.normal(), rng.normal(), rng.uniform(0.0, 3.0),
                           rng.lognormal(0.0, 0.5)});

    for (const std::size_t k : {1u, 5u, 17u}) {
        KnnRegressor knn(k);
        knn.fit(rows, targets);
        const auto brute =
            predict_all(knn, queries, KnnRegressor::Algorithm::kBruteForce);
        const auto tree =
            predict_all(knn, queries, KnnRegressor::Algorithm::kKdTree);
        for (std::size_t i = 0; i < queries.size(); ++i)
            EXPECT_EQ(brute[i], tree[i]) << "k=" << k << " query " << i;
    }
}

TEST(Knn, KdTreeMatchesBruteForceUnderDistanceTies) {
    // Integer lattice with many duplicated points: every query sits at the
    // same distance from whole groups of training points, so the selected
    // set is decided purely by the index tie-break.
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    Rng rng(12);
    for (int rep = 0; rep < 4; ++rep)
        for (int x = 0; x < 6; ++x)
            for (int y = 0; y < 6; ++y) {
                rows.push_back({static_cast<double>(x), static_cast<double>(y)});
                targets.push_back(rng.normal(0.0, 5.0));
            }
    KnnRegressor knn(7);
    knn.fit(rows, targets);
    std::vector<std::vector<double>> queries;
    for (int x = 0; x < 6; ++x)
        for (int y = 0; y < 6; ++y) {
            queries.push_back({static_cast<double>(x), static_cast<double>(y)});
            queries.push_back({x + 0.5, y + 0.5}); // equidistant from 4 corners
        }
    const auto brute =
        predict_all(knn, queries, KnnRegressor::Algorithm::kBruteForce);
    const auto tree = predict_all(knn, queries, KnnRegressor::Algorithm::kKdTree);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(brute[i], tree[i]) << "query " << i;
}

TEST(Knn, KdTreeMatchesBruteForceWhenKExceedsN) {
    Rng rng(13);
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (int i = 0; i < 9; ++i) {
        rows.push_back({rng.normal(), rng.normal()});
        targets.push_back(rng.normal());
    }
    KnnRegressor knn(50); // k far larger than n = 9
    knn.fit(rows, targets);
    const std::vector<std::vector<double>> queries{
        {0.0, 0.0}, {1.0, -1.0}, {3.0, 3.0}};
    const auto brute =
        predict_all(knn, queries, KnnRegressor::Algorithm::kBruteForce);
    const auto tree = predict_all(knn, queries, KnnRegressor::Algorithm::kKdTree);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(brute[i], tree[i]);
}

TEST(Knn, PredictBatchMatchesPredict) {
    Rng rng(15);
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (int i = 0; i < 1000; ++i) {
        rows.push_back({rng.normal(), rng.normal()});
        targets.push_back(rng.normal());
    }
    KnnRegressor knn(5);
    knn.fit(rows, targets);
    std::vector<std::vector<double>> queries;
    for (int i = 0; i < 200; ++i) queries.push_back({rng.normal(), rng.normal()});
    const std::vector<double> batch = knn.predict_batch(queries);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(batch[i], knn.predict(queries[i]));
}

// A KD-tree query flushes its traversal counts once, as per-query sums, so
// the counters fire and their totals are the same for any thread count.
TEST(Knn, KdTreeCountsPrunedNodesIndependentOfThreadCount) {
    Rng rng(16);
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (int i = 0; i < 2000; ++i) {
        rows.push_back({rng.normal(), rng.normal(), rng.normal()});
        targets.push_back(rng.normal());
    }
    std::vector<std::vector<double>> queries;
    for (int i = 0; i < 300; ++i)
        queries.push_back({rng.normal(), rng.normal(), rng.normal()});
    KnnRegressor knn(10);
    knn.fit(rows, targets);
    knn.set_algorithm(KnnRegressor::Algorithm::kKdTree);

    const obs::Counter& pruned = obs::registry().counter("knn.nodes_pruned");
    std::vector<std::uint64_t> totals;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        par::set_thread_count(threads);
        const std::uint64_t before = pruned.value();
        (void)knn.predict_batch(queries);
        totals.push_back(pruned.value() - before);
    }
    par::set_thread_count(0);
    EXPECT_GT(totals[0], 0u);
    EXPECT_EQ(totals[0], totals[1]);
}

TEST(Knn, InputValidation) {
    EXPECT_THROW(KnnRegressor(0), std::invalid_argument);
    KnnRegressor knn(3);
    EXPECT_THROW(knn.fit({}, std::vector<double>{}), std::invalid_argument);
    EXPECT_THROW(knn.fit({{1.0}}, std::vector<double>{1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(knn.predict(std::vector<double>{1.0}), std::logic_error);
    knn.fit({{1.0, 2.0}}, std::vector<double>{1.0});
    EXPECT_THROW(knn.predict(std::vector<double>{1.0}), std::invalid_argument);
}

} // namespace
} // namespace dre::stats
