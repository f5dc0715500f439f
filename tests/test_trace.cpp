#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "trace/types.h"
#include "trace/validate.h"

namespace dre {
namespace {

LoggedTuple make_tuple(Decision d, double reward, double propensity = 0.5,
                       std::int32_t state = LoggedTuple::kNoState) {
    LoggedTuple t;
    t.context.numeric = {static_cast<double>(d), reward};
    t.context.categorical = {d};
    t.decision = d;
    t.reward = reward;
    t.propensity = propensity;
    t.state = state;
    return t;
}

using Values = InlineVector<double, 4>;

// True when v's elements sit inside v itself rather than in a heap block.
template <typename V>
bool stored_inline(const V& v) {
    const auto self = reinterpret_cast<std::uintptr_t>(&v);
    const auto elements = reinterpret_cast<std::uintptr_t>(v.data());
    return elements >= self && elements < self + sizeof(V);
}

Values count_up(std::size_t n, double first) {
    Values v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(first + i);
    return v;
}

TEST(InlineVector, MovesToTheHeapAtTheFifthElement) {
    Values pushed = count_up(4, 0.5);
    EXPECT_TRUE(stored_inline(pushed));
    pushed.push_back(4.5);
    EXPECT_FALSE(stored_inline(pushed));
    EXPECT_EQ(pushed, (Values{0.5, 1.5, 2.5, 3.5, 4.5}));

    InlineVector<std::int32_t, 4> resized{7, 8};
    resized.resize(4);
    EXPECT_TRUE(stored_inline(resized));
    EXPECT_EQ(resized, (InlineVector<std::int32_t, 4>{7, 8, 0, 0}));
    resized.resize(5);
    EXPECT_FALSE(stored_inline(resized));
    EXPECT_EQ(resized, (InlineVector<std::int32_t, 4>{7, 8, 0, 0, 0}));
    // The heap block is kept when the size drops; regrown elements are
    // zero again.
    const std::int32_t* block = resized.data();
    resized[4] = 9;
    resized.resize(2);
    resized.resize(5);
    EXPECT_EQ(resized.data(), block);
    EXPECT_EQ(resized, (InlineVector<std::int32_t, 4>{7, 8, 0, 0, 0}));
    resized.clear();
    EXPECT_EQ(resized.size(), 0u);
    EXPECT_EQ(resized.data(), block);
    EXPECT_THROW(resized.at(0), std::out_of_range);
}

TEST(InlineVector, CopiesAndMovesBetweenInlineAndHeap) {
    for (const std::size_t from : {2u, 6u}) {
        for (const std::size_t to : {0u, 3u, 7u}) {
            SCOPED_TRACE(testing::Message() << from << " over " << to);
            const Values source = count_up(from, 1.0);

            const Values copied(source);
            EXPECT_EQ(copied, source);
            EXPECT_NE(copied.data(), source.data());
            Values copy_target = count_up(to, 100.0);
            copy_target = source;
            EXPECT_EQ(copy_target, source);
            EXPECT_NE(copy_target.data(), source.data());

            // A heap block changes hands; inline values are copied, so
            // data() moves with the container.
            Values donor = source;
            const double* block = donor.data();
            const Values moved(std::move(donor));
            EXPECT_EQ(moved, source);
            EXPECT_EQ(moved.data() == block, from > 4);
            donor = source;
            Values move_target = count_up(to, 100.0);
            move_target = std::move(donor);
            EXPECT_EQ(move_target, source);

            // Moved-from: empty, inline, and usable.
            EXPECT_EQ(donor.size(), 0u);
            EXPECT_TRUE(stored_inline(donor));
            donor.push_back(-1.0);
            EXPECT_EQ(donor, Values{-1.0});
        }
    }
    for (const std::size_t n : {2u, 6u}) {
        Values v = count_up(n, 1.0);
        Values& alias = v;
        v = alias;
        EXPECT_EQ(v, count_up(n, 1.0));
        v = std::move(alias);
        EXPECT_EQ(v, count_up(n, 1.0));
    }
}

// == is element-wise with double's ==, as std::vector's is: -0.0 equals
// 0.0, NaN equals nothing, and where the values live does not matter.
TEST(InlineVector, EqualityMatchesStdVector) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::vector<double>> lists = {
        {},         {0.0},           {-0.0},          {nan},
        {1.0, 2.0}, {1.0, 2.0, 3.0}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 6},
    };
    const auto build = [](const std::vector<double>& list) {
        Values v;
        for (const double x : list) v.push_back(x);
        return v;
    };
    for (const auto& a : lists)
        for (const auto& b : lists)
            EXPECT_EQ(build(a) == build(b), a == b)
                << a.size() << " vs " << b.size();
    Values reserved;
    reserved.reserve(8);
    reserved.push_back(1.0);
    reserved.push_back(2.0);
    EXPECT_FALSE(stored_inline(reserved));
    EXPECT_EQ(reserved, (Values{1.0, 2.0}));
}

TEST(ClientContext, FlattenedConcatenatesFeatures) {
    ClientContext c({1.5, 2.5}, {3, 4});
    const std::vector<double> flat = c.flattened();
    ASSERT_EQ(flat.size(), 4u);
    EXPECT_DOUBLE_EQ(flat[0], 1.5);
    EXPECT_DOUBLE_EQ(flat[2], 3.0);
    EXPECT_EQ(c.numeric_dims(), 2u);
    EXPECT_EQ(c.categorical_dims(), 2u);
}

TEST(ClientContext, FingerprintIsStableAndDiscriminates) {
    ClientContext a({1.0}, {2});
    ClientContext b({1.0}, {2});
    ClientContext c({1.0}, {3});
    ClientContext d({1.0000001}, {2});
    EXPECT_EQ(context_fingerprint(a), context_fingerprint(b));
    EXPECT_NE(context_fingerprint(a), context_fingerprint(c));
    EXPECT_NE(context_fingerprint(a), context_fingerprint(d));
}

TEST(Trace, BasicAccessors) {
    Trace trace;
    EXPECT_TRUE(trace.empty());
    trace.add(make_tuple(0, 1.0));
    trace.add(make_tuple(2, -1.0));
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.num_decisions(), 3u);
    EXPECT_DOUBLE_EQ(trace[1].reward, -1.0);
}

TEST(Trace, RewardsVector) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 0.25));
    trace.add(make_tuple(1, 2.0, 0.75));
    EXPECT_EQ(trace.rewards(), (std::vector<double>{1.0, 2.0}));
}

TEST(Trace, FilteredKeepsMatching) {
    Trace trace;
    for (int i = 0; i < 10; ++i)
        trace.add(make_tuple(static_cast<Decision>(i % 2), i));
    const Trace evens =
        trace.filtered([](const LoggedTuple& t) { return t.decision == 0; });
    EXPECT_EQ(evens.size(), 5u);
    for (const auto& t : evens) EXPECT_EQ(t.decision, 0);
}

TEST(Trace, WithStateSelectsLabel) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 0.5, 0));
    trace.add(make_tuple(0, 2.0, 0.5, 1));
    trace.add(make_tuple(0, 3.0, 0.5, 1));
    EXPECT_EQ(trace.with_state(1).size(), 2u);
    EXPECT_EQ(trace.with_state(0).size(), 1u);
    EXPECT_TRUE(trace.with_state(9).empty());
}

TEST(Trace, SplitPartitionsAllTuples) {
    Trace trace;
    for (int i = 0; i < 1000; ++i) trace.add(make_tuple(0, i));
    stats::Rng rng(1);
    const auto [train, holdout] = trace.split(0.7, rng);
    EXPECT_EQ(train.size() + holdout.size(), trace.size());
    EXPECT_NEAR(static_cast<double>(train.size()), 700.0, 60.0);
    EXPECT_THROW(trace.split(0.0, rng), std::invalid_argument);
    EXPECT_THROW(trace.split(1.0, rng), std::invalid_argument);
}

TEST(ValidateTrace, AcceptsGoodTrace) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 1.0));
    EXPECT_NO_THROW(validate_trace(trace));
}

TEST(ValidateTrace, RejectsBadPropensity) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 0.0));
    EXPECT_THROW(validate_trace(trace), std::invalid_argument);
    Trace trace2;
    trace2.add(make_tuple(0, 1.0, 1.5));
    EXPECT_THROW(validate_trace(trace2), std::invalid_argument);
}

TEST(ValidateTrace, RejectsNonFiniteRewardAndNegativeDecision) {
    Trace trace;
    trace.add(make_tuple(0, std::numeric_limits<double>::quiet_NaN()));
    EXPECT_THROW(validate_trace(trace), std::invalid_argument);
    Trace trace2;
    LoggedTuple bad = make_tuple(0, 1.0);
    bad.decision = -1;
    trace2.add(bad);
    EXPECT_THROW(validate_trace(trace2), std::invalid_argument);
}

// A trace with contexts of both storage kinds: tuple i has i % 7 numeric
// features, so some stay inline and some spill to the heap.
Trace mixed_width_trace(std::size_t n) {
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        LoggedTuple t = make_tuple(static_cast<Decision>(i % 3), 0.25 * i);
        t.context.numeric.clear();
        for (std::size_t j = 0; j < i % 7; ++j)
            t.context.numeric.push_back(i + 0.125 * j);
        trace.add(std::move(t));
    }
    return trace;
}

void expect_same_bits(const LoggedTuple& a, const LoggedTuple& b) {
    EXPECT_EQ(a.decision, b.decision);
    EXPECT_EQ(std::memcmp(&a.reward, &b.reward, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.propensity, &b.propensity, sizeof(double)), 0);
    ASSERT_EQ(a.context.numeric.size(), b.context.numeric.size());
    EXPECT_EQ(std::memcmp(a.context.numeric.data(), b.context.numeric.data(),
                          a.context.numeric.size() * sizeof(double)),
              0);
    EXPECT_EQ(a.context.categorical, b.context.categorical);
}

TEST(RemoveDefectiveTuples, CleanTraceComesBackUnchanged) {
    Trace trace = mixed_width_trace(40);
    const Trace before = trace;
    EXPECT_TRUE(remove_defective_tuples(trace, 3).empty());
    ASSERT_EQ(trace.size(), before.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_bits(trace[i], before[i]);
    }
}

TEST(RemoveDefectiveTuples, KeepsEveryOtherTuplesContext) {
    Trace trace = mixed_width_trace(40);
    trace[13].reward = std::numeric_limits<double>::infinity();
    const Trace before = trace;
    const auto counts = remove_defective_tuples(trace, 3);
    EXPECT_EQ(counts, (std::map<std::string, std::uint64_t>{
                          {"non-finite-reward", 1}}));
    ASSERT_EQ(trace.size(), before.size() - 1);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_bits(trace[i], before[i < 13 ? i : i + 1]);
    }
}

} // namespace
} // namespace dre
