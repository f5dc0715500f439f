#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dre::par {
namespace {

// Restore the default pool size after each test so ordering cannot leak
// thread-count state between test cases.
class ParallelTest : public ::testing::Test {
protected:
    void TearDown() override { set_thread_count(0); }
};

TEST_F(ParallelTest, PoolStartsAndStopsCleanly) {
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        EXPECT_EQ(pool.thread_count(), 4u);
        std::atomic<int> hits{0};
        pool.run(100, [&](std::size_t) { hits.fetch_add(1); });
        EXPECT_EQ(hits.load(), 100);
    } // destructor joins workers each round
}

TEST_F(ParallelTest, PoolOfOneRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::vector<int> order;
    pool.run(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
    set_thread_count(4);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ParallelForChunkedCoversRangeWithDisjointChunks) {
    set_thread_count(4);
    std::vector<std::atomic<int>> hits(10000);
    parallel_for_chunked(hits.size(), [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ExceptionPropagatesAndPoolSurvives) {
    set_thread_count(4);
    EXPECT_THROW(parallel_for(100,
                              [](std::size_t i) {
                                  if (i == 37)
                                      throw std::runtime_error("task failure");
                              }),
                 std::runtime_error);
    // The pool must still be usable after a throwing batch.
    std::atomic<int> hits{0};
    parallel_for(50, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 50);
}

TEST_F(ParallelTest, ExceptionOnSerialPathPropagates) {
    set_thread_count(1);
    EXPECT_THROW(
        parallel_for(3, [](std::size_t) { throw std::invalid_argument("boom"); }),
        std::invalid_argument);
}

TEST_F(ParallelTest, NestedParallelForIsSafeAndComplete) {
    set_thread_count(4);
    std::vector<std::atomic<int>> hits(40 * 40);
    parallel_for(40, [&](std::size_t outer) {
        EXPECT_TRUE(in_parallel_region() || thread_count() == 1);
        parallel_for(40, [&](std::size_t inner) {
            hits[outer * 40 + inner].fetch_add(1);
        });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, SetThreadCountReconfiguresGlobalPool) {
    set_thread_count(3);
    EXPECT_EQ(thread_count(), 3u);
    set_thread_count(1);
    EXPECT_EQ(thread_count(), 1u);
    std::atomic<int> hits{0};
    parallel_for(10, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 10);
}

TEST_F(ParallelTest, ChunkedSumMatchesSerialFoldAcrossThreadCounts) {
    std::vector<double> xs(3 * kReduceChunk + 123);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = 0.5 + static_cast<double>(i % 97) * 0.25;
    set_thread_count(1);
    const double serial = chunked_sum(xs);
    set_thread_count(8);
    const double parallel = chunked_sum(xs);
    EXPECT_EQ(serial, parallel); // bit-identical, not just close
    // And it is an accurate sum.
    const double reference = std::accumulate(xs.begin(), xs.end(), 0.0);
    EXPECT_NEAR(serial, reference, 1e-6);
}

TEST_F(ParallelTest, ChunkedMeanIsThreadCountInvariant) {
    std::vector<double> xs(2 * kReduceChunk + 17);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
    set_thread_count(1);
    const double serial = chunked_mean(xs);
    set_thread_count(8);
    const double parallel = chunked_mean(xs);
    EXPECT_EQ(serial, parallel);
    EXPECT_THROW(chunked_mean({}), std::invalid_argument);
}

TEST_F(ParallelTest, EmptyAndSingleItemBatches) {
    set_thread_count(4);
    parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
    int calls = 0;
    parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

} // namespace
} // namespace dre::par
