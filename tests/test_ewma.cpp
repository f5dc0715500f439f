#include "stats/ewma.h"

#include <gtest/gtest.h>

namespace dre::stats {
namespace {

TEST(SlidingWindow, EvictsOldestBeyondCapacity) {
    SlidingWindow window(3);
    for (double x : {1.0, 2.0, 3.0, 4.0}) window.add(x);
    EXPECT_EQ(window.size(), 3u);
    // HM(2,3,4) = 3/(1/2 + 1/3 + 1/4) = 36/13: the 1 was evicted.
    EXPECT_NEAR(window.harmonic_mean(), 36.0 / 13.0, 1e-12);
}

TEST(SlidingWindow, HarmonicMeanKnownValue) {
    SlidingWindow window(4);
    window.add(1.0);
    window.add(2.0);
    // HM(1,2) = 2/(1 + 0.5) = 4/3.
    EXPECT_NEAR(window.harmonic_mean(), 4.0 / 3.0, 1e-12);
}

TEST(SlidingWindow, Validation) {
    EXPECT_THROW(SlidingWindow(0), std::invalid_argument);
    SlidingWindow window(2);
    EXPECT_TRUE(window.empty());
    EXPECT_THROW(window.harmonic_mean(), std::logic_error);
    window.add(-1.0);
    EXPECT_THROW(window.harmonic_mean(), std::invalid_argument);
}

} // namespace
} // namespace dre::stats
