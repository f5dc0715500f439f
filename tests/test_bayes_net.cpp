#include "wise/bayes_net.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "obs/obs.h"
#include "stats/rng.h"

namespace dre::wise {
namespace {

// Generate rows from a known chain A -> B -> C with binary variables:
// P(A=1)=0.7; P(B=1|A)=0.8 if A else 0.2; P(C=1|B)=0.9 if B else 0.1.
std::vector<Assignment> chain_rows(std::size_t n, stats::Rng& rng) {
    std::vector<Assignment> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t a = rng.bernoulli(0.7) ? 1 : 0;
        const std::int32_t b = rng.bernoulli(a ? 0.8 : 0.2) ? 1 : 0;
        const std::int32_t c = rng.bernoulli(b ? 0.9 : 0.1) ? 1 : 0;
        rows.push_back({a, b, c});
    }
    return rows;
}

BayesianNetwork fitted_chain(std::size_t n = 20000, std::uint64_t seed = 1) {
    stats::Rng rng(seed);
    BayesianNetwork net({2, 2, 2});
    net.set_parents(1, {0});
    net.set_parents(2, {1});
    net.fit(chain_rows(n, rng), 0.5);
    return net;
}

TEST(BayesNet, StructureValidation) {
    BayesianNetwork net({2, 3});
    EXPECT_THROW(net.set_parents(0, {0}), std::invalid_argument); // self
    EXPECT_THROW(net.set_parents(0, {9}), std::invalid_argument); // unknown
    net.set_parents(1, {0});
    EXPECT_THROW(net.set_parents(0, {1}), std::invalid_argument); // cycle
    // Failed set_parents must not corrupt existing structure.
    EXPECT_EQ(net.parents(1), std::vector<std::size_t>{0});
    EXPECT_THROW(BayesianNetwork({}), std::invalid_argument);
    EXPECT_THROW(BayesianNetwork({0}), std::invalid_argument);
}

TEST(BayesNet, TopologicalOrderRespectsParents) {
    BayesianNetwork net({2, 2, 2});
    net.set_parents(0, {2});
    net.set_parents(1, {0});
    const auto& order = net.topological_order();
    const auto position = [&](std::size_t v) {
        return std::find(order.begin(), order.end(), v) - order.begin();
    };
    EXPECT_LT(position(2), position(0));
    EXPECT_LT(position(0), position(1));
}

TEST(BayesNet, CptRecoversGeneratingDistribution) {
    const BayesianNetwork net = fitted_chain();
    EXPECT_NEAR(net.conditional_probability(0, {1, 0, 0}), 0.7, 0.02);
    EXPECT_NEAR(net.conditional_probability(1, {1, 1, 0}), 0.8, 0.02);
    EXPECT_NEAR(net.conditional_probability(1, {0, 1, 0}), 0.2, 0.02);
    EXPECT_NEAR(net.conditional_probability(2, {0, 1, 1}), 0.9, 0.02);
}

TEST(BayesNet, JointProbabilitySumsToOne) {
    const BayesianNetwork net = fitted_chain();
    double total = 0.0;
    for (std::int32_t a = 0; a < 2; ++a)
        for (std::int32_t b = 0; b < 2; ++b)
            for (std::int32_t c = 0; c < 2; ++c)
                total += net.joint_probability({a, b, c});
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BayesNet, SamplingMatchesMarginals) {
    const BayesianNetwork net = fitted_chain();
    stats::Rng rng(2);
    int a1 = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) a1 += net.sample(rng)[0];
    EXPECT_NEAR(static_cast<double>(a1) / draws, 0.7, 0.01);
}

TEST(BayesNet, PosteriorInferenceIsBayesConsistent) {
    const BayesianNetwork net = fitted_chain();
    // P(A=1 | C=1) by Bayes on the true chain ~ 0.7*(.8*.9+.2*.1)/(P(C=1)).
    const double p_c1_given_a1 = 0.8 * 0.9 + 0.2 * 0.1;   // 0.74
    const double p_c1_given_a0 = 0.2 * 0.9 + 0.8 * 0.1;   // 0.26
    const double p_c1 = 0.7 * p_c1_given_a1 + 0.3 * p_c1_given_a0;
    const double expected = 0.7 * p_c1_given_a1 / p_c1;
    const auto posterior = net.posterior(0, {{2, 1}});
    EXPECT_NEAR(posterior[1], expected, 0.02);
    EXPECT_NEAR(posterior[0] + posterior[1], 1.0, 1e-9);
    // No evidence = prior.
    EXPECT_NEAR(net.posterior(0, {})[1], 0.7, 0.02);
}

TEST(BayesNet, PosteriorValidation) {
    const BayesianNetwork net = fitted_chain(2000);
    EXPECT_THROW(net.posterior(9, {}), std::out_of_range);
    EXPECT_THROW(net.posterior(0, {{9, 0}}), std::invalid_argument);
    EXPECT_THROW(net.posterior(0, {{1, 5}}), std::invalid_argument);
    BayesianNetwork unfitted({2});
    EXPECT_THROW(unfitted.posterior(0, {}), std::logic_error);
}

// Random DAG over `n` variables with mixed cardinalities: each variable may
// take parents among lower-numbered variables, fitted on random rows. Small
// enough for the enumeration reference to stay cheap.
BayesianNetwork random_network(std::size_t n, std::uint64_t seed) {
    stats::Rng rng(seed);
    std::vector<std::int32_t> cards;
    for (std::size_t v = 0; v < n; ++v)
        cards.push_back(2 + static_cast<std::int32_t>(rng.uniform_index(2))); // 2..3
    BayesianNetwork net(cards);
    for (std::size_t v = 1; v < n; ++v) {
        std::vector<std::size_t> parents;
        for (std::size_t p = 0; p < v; ++p)
            if (rng.bernoulli(0.4)) parents.push_back(p);
        if (parents.size() > 3) parents.resize(3);
        net.set_parents(v, parents);
    }
    std::vector<Assignment> rows;
    for (int i = 0; i < 500; ++i) {
        Assignment row;
        for (std::int32_t c : cards)
            row.push_back(static_cast<std::int32_t>(
                rng.uniform_index(static_cast<std::size_t>(c))));
        rows.push_back(row);
    }
    net.fit(rows, 1.0);
    return net;
}

TEST(BayesNet, VariableEliminationMatchesEnumerationOnRandomNetworks) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const BayesianNetwork net = random_network(6, seed);
        stats::Rng rng(100 + seed);
        for (int trial = 0; trial < 20; ++trial) {
            const std::size_t query = rng.uniform_index(net.num_variables());
            std::map<std::size_t, std::int32_t> evidence;
            for (std::size_t v = 0; v < net.num_variables(); ++v) {
                if (v == query || !rng.bernoulli(0.4)) continue;
                evidence[v] = static_cast<std::int32_t>(rng.uniform_index(
                    static_cast<std::size_t>(net.cardinality(v))));
            }
            const auto ve = net.posterior(query, evidence);
            const auto enumerated = net.posterior_enumerate(query, evidence);
            ASSERT_EQ(ve.size(), enumerated.size());
            for (std::size_t q = 0; q < ve.size(); ++q)
                EXPECT_NEAR(ve[q], enumerated[q], 1e-12)
                    << "seed " << seed << " trial " << trial << " q " << q;
        }
    }
}

TEST(BayesNet, PosteriorCacheReturnsIdenticalValues) {
    const BayesianNetwork net = fitted_chain(2000);
    EXPECT_EQ(net.posterior_cache_size(), 0u);
    const auto first = net.posterior(0, {{2, 1}});
    EXPECT_EQ(net.posterior_cache_size(), 1u);
    const auto second = net.posterior(0, {{2, 1}});
    EXPECT_EQ(net.posterior_cache_size(), 1u); // hit, not a new entry
    for (std::size_t q = 0; q < first.size(); ++q)
        EXPECT_EQ(first[q], second[q]); // bitwise: served from the cache
    // Distinct evidence is a distinct entry.
    net.posterior(0, {{2, 0}});
    EXPECT_EQ(net.posterior_cache_size(), 2u);
}

// The memo cache's hits reach the obs registry: a repeated posterior is
// one cbn.cache_hits, the first one none.
TEST(BayesNet, RepeatedPosteriorCountsOneObsCacheHit) {
    const BayesianNetwork net = fitted_chain(2000);
    const obs::Counter& hits = obs::registry().counter("cbn.cache_hits");
    const std::uint64_t before = hits.value();
    (void)net.posterior(0, {{2, 1}});
    EXPECT_EQ(hits.value(), before);
    (void)net.posterior(0, {{2, 1}});
    EXPECT_EQ(hits.value(), before + 1);
}

TEST(BayesNet, PosteriorCacheStatsCountHitsAndResetOnRefit) {
    BayesianNetwork net = fitted_chain(2000);
    BayesianNetwork::CacheStats stats = net.posterior_cache_stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.size, 0u);

    net.posterior(0, {{2, 1}}); // cold: one miss fills the cache
    stats = net.posterior_cache_stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.size, 1u);

    net.posterior(0, {{2, 1}}); // repeats of the same query hit
    net.posterior(0, {{2, 1}});
    stats = net.posterior_cache_stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.size, 1u);

    net.posterior(0, {{2, 0}}); // distinct evidence is a fresh miss
    stats = net.posterior_cache_stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.size, 2u);

    // Refit drops the cache and its accounting together.
    stats::Rng rng(23);
    net.fit(chain_rows(2000, rng), 0.5);
    stats = net.posterior_cache_stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.size, 0u);
}

TEST(BayesNet, PosteriorCacheInvalidatedByRefit) {
    BayesianNetwork net({2, 2, 2});
    net.set_parents(1, {0});
    net.set_parents(2, {1});
    stats::Rng rng(21);
    net.fit(chain_rows(5000, rng), 0.5);
    const auto before = net.posterior(0, {{2, 1}});
    EXPECT_EQ(net.posterior_cache_size(), 1u);
    // Refit on fresh rows: the cache must not serve stale posteriors.
    net.fit(chain_rows(5000, rng), 0.5);
    EXPECT_EQ(net.posterior_cache_size(), 0u);
    const auto after = net.posterior(0, {{2, 1}});
    EXPECT_NE(before[1], after[1]); // different sample, different CPTs
}

TEST(BayesNet, PosteriorCopyKeepsIndependentCache) {
    BayesianNetwork net = fitted_chain(2000);
    net.posterior(0, {{2, 1}});
    BayesianNetwork copy = net;
    stats::Rng rng(22);
    copy.fit(chain_rows(2000, rng), 0.5);
    // The refit copy answers from its own parameters while the original's
    // cached answer is untouched.
    const auto original = net.posterior(0, {{2, 1}});
    const auto refit = copy.posterior(0, {{2, 1}});
    EXPECT_NEAR(original[1], net.posterior_enumerate(0, {{2, 1}})[1], 1e-12);
    EXPECT_NEAR(refit[1], copy.posterior_enumerate(0, {{2, 1}})[1], 1e-12);
    EXPECT_NE(original[1], refit[1]);
}

TEST(MutualInformation, IndependentIsZeroDependentIsPositive) {
    stats::Rng rng(3);
    std::vector<Assignment> rows;
    for (int i = 0; i < 20000; ++i) {
        const std::int32_t x = rng.bernoulli(0.5) ? 1 : 0;
        const std::int32_t independent = rng.bernoulli(0.5) ? 1 : 0;
        const std::int32_t copy = x;
        rows.push_back({x, independent, copy});
    }
    EXPECT_NEAR(mutual_information(rows, 0, 1, 2, 2), 0.0, 0.005);
    EXPECT_NEAR(mutual_information(rows, 0, 2, 2, 2), std::log(2.0), 0.01);
}

TEST(ChowLiu, RecoversChainSkeleton) {
    stats::Rng rng(4);
    const std::vector<Assignment> rows = chain_rows(20000, rng);
    const BayesianNetwork net = learn_chow_liu_tree(rows, {2, 2, 2});
    // Tree rooted at 0: expected parents B<-A (or via C) forming the chain
    // skeleton: each non-root has exactly one parent, and the (A,B), (B,C)
    // edges are recovered (never the weak (A,C) shortcut for both).
    EXPECT_TRUE(net.parents(0).empty());
    EXPECT_EQ(net.parents(1).size(), 1u);
    EXPECT_EQ(net.parents(2).size(), 1u);
    EXPECT_EQ(net.parents(1)[0], 0u);
    EXPECT_EQ(net.parents(2)[0], 1u);
    // The learned tree is immediately usable for inference.
    const auto posterior = net.posterior(2, {{0, 1}});
    EXPECT_GT(posterior[1], 0.5);
}

} // namespace
} // namespace dre::wise
