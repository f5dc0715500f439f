#include "core/diagnostics.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/environment.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

Trace uniform_trace(std::size_t n, std::size_t decisions, stats::Rng& rng) {
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        LoggedTuple t;
        t.context.numeric = {rng.uniform(0.0, 1.0)};
        t.decision = static_cast<Decision>(rng.uniform_index(decisions));
        t.propensity = 1.0 / static_cast<double>(decisions);
        t.reward = rng.normal();
        trace.add(std::move(t));
    }
    return trace;
}

TEST(Overlap, PerfectOverlapGivesFullEss) {
    stats::Rng rng(1);
    const Trace trace = uniform_trace(500, 3, rng);
    UniformRandomPolicy same(3);
    const OverlapDiagnostics diag = overlap_diagnostics(trace, same);
    EXPECT_NEAR(diag.effective_sample_size, 500.0, 1e-9);
    EXPECT_NEAR(diag.effective_sample_fraction, 1.0, 1e-9);
    EXPECT_NEAR(diag.mean_weight, 1.0, 1e-9);
    EXPECT_NEAR(diag.weight_cv, 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(diag.zero_weight_fraction, 0.0);
}

TEST(Overlap, DeterministicTargetShrinksEss) {
    stats::Rng rng(2);
    const Trace trace = uniform_trace(600, 3, rng);
    DeterministicPolicy target(3, [](const ClientContext&) { return Decision{0}; });
    const OverlapDiagnostics diag = overlap_diagnostics(trace, target);
    // Only ~1/3 of tuples carry weight 3; the rest are zero.
    EXPECT_NEAR(diag.zero_weight_fraction, 2.0 / 3.0, 0.08);
    EXPECT_NEAR(diag.effective_sample_fraction, 1.0 / 3.0, 0.05);
    EXPECT_NEAR(diag.mean_weight, 1.0, 0.15);
    EXPECT_DOUBLE_EQ(diag.max_weight, 3.0);
}

TEST(Overlap, MeanWeightDetectsWrongPropensities) {
    stats::Rng rng(3);
    Trace trace = uniform_trace(500, 2, rng);
    for (auto& t : trace) t.propensity = 0.25; // wrong: truly 0.5
    UniformRandomPolicy target(2);
    const OverlapDiagnostics diag = overlap_diagnostics(trace, target);
    EXPECT_NEAR(diag.mean_weight, 2.0, 1e-9); // should be ~1 when correct
}

TEST(Match, CountsArgmaxAgreement) {
    stats::Rng rng(4);
    const Trace trace = uniform_trace(900, 3, rng);
    DeterministicPolicy target(3, [](const ClientContext&) { return Decision{1}; });
    const MatchDiagnostics diag = match_diagnostics(trace, target);
    EXPECT_NEAR(diag.match_rate, 1.0 / 3.0, 0.05);
    EXPECT_EQ(diag.matches,
              static_cast<std::size_t>(diag.match_rate * 900.0 + 0.5));
    EXPECT_THROW(match_diagnostics(Trace{}, target), std::invalid_argument);
}

} // namespace
} // namespace dre::core
