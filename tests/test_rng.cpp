#include "stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "stats/summary.h"

namespace dre::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    Rng rng(11);
    Accumulator acc;
    for (int i = 0; i < 100000; ++i) acc.add(rng.uniform());
    EXPECT_NEAR(acc.mean(), 0.5, 0.01);
    EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-3.0, 2.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 2.0);
    }
    EXPECT_THROW(rng.uniform(2.0, 2.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversAllValuesUnbiased) {
    Rng rng(3);
    std::vector<int> counts(7, 0);
    const int draws = 70000;
    for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
    for (int c : counts) EXPECT_NEAR(c, draws / 7.0, draws / 7.0 * 0.1);
    EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng(13);
    int hits = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.02);
    EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
    Rng rng(17);
    Accumulator acc;
    for (int i = 0; i < 100000; ++i) acc.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(acc.mean(), 2.0, 0.05);
    EXPECT_NEAR(acc.stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
    Rng rng(19);
    Accumulator acc;
    for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(4.0));
    EXPECT_NEAR(acc.mean(), 0.25, 0.01);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, LognormalMedianIsExpMu) {
    Rng rng(23);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
    EXPECT_NEAR(median(xs), std::exp(1.0), 0.1);
}

TEST(Rng, ParetoRespectsScale) {
    Rng rng(29);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
    EXPECT_THROW(rng.pareto(-1.0, 1.0), std::invalid_argument);
}

TEST(Rng, CategoricalFollowsWeights) {
    Rng rng(31);
    const std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i) ++counts[rng.categorical(weights)];
    EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.015);
    EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.015);
}

TEST(Rng, CategoricalRejectsBadWeights) {
    Rng rng(37);
    EXPECT_THROW(rng.categorical(std::vector<double>{}), std::invalid_argument);
    EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(rng.categorical(std::vector<double>{-1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Rng, CategoricalHandlesZeroLeadingWeight) {
    Rng rng(41);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.categorical(std::vector<double>{0.0, 1.0}), 1u);
}

TEST(Rng, PoissonMeanMatchesLambdaSmallAndLarge) {
    Rng rng(43);
    Accumulator small, large;
    for (int i = 0; i < 20000; ++i) {
        small.add(static_cast<double>(rng.poisson(3.0)));
        large.add(static_cast<double>(rng.poisson(80.0)));
    }
    EXPECT_NEAR(small.mean(), 3.0, 0.1);
    EXPECT_NEAR(large.mean(), 80.0, 0.5);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(47);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto shuffled = v;
    rng.shuffle(shuffled);
    EXPECT_NE(shuffled, v); // astronomically unlikely to be identity
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a(53);
    Rng b = a.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 2);
}

TEST(Rng, KeyedSplitIsDeterministicAndLeavesParentUntouched) {
    const Rng parent(53);
    // Same parent state + same stream id => identical child stream.
    Rng child_a = parent.split(7);
    Rng child_b = parent.split(7);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
    // The const split must not advance the parent: a fresh generator with
    // the same seed produces the same outputs after any number of splits.
    Rng mutable_parent(53);
    (void)mutable_parent.split(1);
    (void)mutable_parent.split(2);
    Rng fresh(53);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(mutable_parent.next_u64(), fresh.next_u64());
}

TEST(Rng, KeyedSplitStreamsAreMutuallyIndependent) {
    const Rng parent(53);
    // Children with distinct ids diverge from each other and the parent.
    Rng child0 = parent.split(0);
    Rng child1 = parent.split(1);
    Rng parent_copy(53);
    int equal01 = 0, equal0p = 0;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t x0 = child0.next_u64();
        const std::uint64_t x1 = child1.next_u64();
        const std::uint64_t xp = parent_copy.next_u64();
        equal01 += x0 == x1;
        equal0p += x0 == xp;
    }
    EXPECT_LT(equal01, 2);
    EXPECT_LT(equal0p, 2);
    // Adjacent ids (differing in one bit) must still decorrelate: check the
    // normalized mean of child streams stays near 1/2.
    Accumulator acc;
    for (std::uint64_t id = 0; id < 64; ++id) {
        Rng child = parent.split(id);
        acc.add(child.uniform());
    }
    EXPECT_NEAR(acc.mean(), 0.5, 0.12);
}

// Known answers, computed once by the original out-of-line generator and
// never to change. They pin the SplitMix64 seeding, the xoshiro256** step,
// both splits and Lemire's rejection loop, so an edit to any of them fails
// here instead of silently shifting every seeded result in the repo.
using Words = std::array<std::uint64_t, 4>;

TEST(Rng, KnownAnswerNextU64) {
    Rng rng(20170807);
    EXPECT_EQ(rng.state(), (Words{0xb16f3fb709134ec2ull, 0xa4a35cccadcd9be8ull,
                                  0x753e1ea13b091eacull, 0x6fcc533eff1681e9ull}));
    for (const std::uint64_t want :
         {0x5ba7fd469233e4f3ull, 0x500fb70c77634b02ull, 0x9dd726094ab54792ull,
          0x8d4ae1799bb05defull})
        EXPECT_EQ(rng.next_u64(), want);
}

TEST(Rng, KnownAnswerSplits) {
    Rng parent(20170807);
    EXPECT_EQ(parent.split(7).state(),
              (Words{0x58e58415806700a1ull, 0xea98dac6ed4c6702ull,
                     0xc7d97a08772a1268ull, 0x3c0dbd3195440427ull}));
    EXPECT_EQ(parent.split(0).state(),
              (Words{0xe8668a8433ab302cull, 0x56b52880805e6c0eull,
                     0x8b960f05ec696fdeull, 0xfa9acf152d5e5931ull}));
    // The sequential split consumes exactly one output of the parent.
    EXPECT_EQ(parent.split().state(),
              (Words{0x5011f9b0f84e1841ull, 0x7cd663c5bfa3e14full,
                     0xd7a256568eadd376ull, 0x30bfee9ddc4856faull}));
    EXPECT_EQ(parent.state(),
              (Words{0x7a0030455bc854c3ull, 0x60f27dda9fd7cb86ull,
                     0x7dc87a8d05ca506eull, 0x6340396de1fe4a5bull}));
    EXPECT_EQ(parent.next_u64(), 0x500fb70c77634b02ull);
}

TEST(Rng, KnownAnswerUniformIndex) {
    Rng rng(20170807);
    const struct {
        std::uint64_t n;
        std::uint64_t draws[3];
    } cases[] = {{1, {0, 0, 0}},
                 {848, {468, 548, 510}},
                 {1808, {1536, 584, 793}},
                 {4096, {1436, 1991, 3496}},
                 {3ull << 30, {1580740617, 124530432, 589107480}}};
    for (const auto& c : cases)
        for (const std::uint64_t want : c.draws)
            EXPECT_EQ(rng.uniform_index(c.n), want) << "n=" << c.n;
}

TEST(Rng, KnownAnswerRejectedDrawIsRedrawn) {
    // Word 1 = 0 makes the first output exactly 0. Its Lemire low word (0)
    // falls under the threshold 2^64 mod 848 = 704, so the draw is rejected
    // and the second output decides.
    const Words words{0x0123456789abcdefull, 0, 0xfedcba9876543210ull,
                      0x0f1e2d3c4b5a6978ull};
    Rng raw = Rng::from_state(words);
    EXPECT_EQ(raw.next_u64(), 0u);
    EXPECT_EQ(raw.next_u64(), 0xffffffffffffedf7ull);

    Rng rejected = Rng::from_state(words);
    EXPECT_EQ(rejected.uniform_index(848), 847u);
    EXPECT_EQ(rejected.state(), raw.state()); // exactly one redraw
    EXPECT_EQ(rejected.state(),
              (Words{0xbced9647f8a9d203ull, 0x0e3d685bc2f1a497ull,
                     0x0e3d685bc2f05b68ull, 0x0ed2965a1fc3874bull}));
    Rng rejected_too = Rng::from_state(words);
    EXPECT_EQ(rejected_too.uniform_index(1808), 1807u);

    // A power of two has threshold 0: the zero output is accepted.
    Rng accepted = Rng::from_state(words);
    EXPECT_EQ(accepted.uniform_index(4096), 0u);
    Rng one_step = Rng::from_state(words);
    (void)one_step.next_u64();
    EXPECT_EQ(accepted.state(), one_step.state());
}

} // namespace
} // namespace dre::stats
