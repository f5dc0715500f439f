// Tests for the trace auditor: each §4.1 pitfall triggers its finding, and
// a clean trace triggers none.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/audit.h"
#include "core/environment.h"
#include "core/policy.h"
#include "core/policy_learning.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

bool has_code(const std::vector<AuditFinding>& findings, const std::string& code) {
    return std::any_of(findings.begin(), findings.end(),
                       [&](const AuditFinding& f) { return f.code == code; });
}

const AuditFinding* find_code(const std::vector<AuditFinding>& findings,
                              const std::string& code) {
    const auto it = std::find_if(findings.begin(), findings.end(),
                                 [&](const AuditFinding& f) { return f.code == code; });
    return it == findings.end() ? nullptr : &*it;
}

// A stationary two-decision environment with honest uniform logging.
class CleanEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.normal()});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return 0.3 * c.numeric[0] + 0.2 * static_cast<double>(d) +
               0.5 * rng.normal();
    }
    std::size_t num_decisions() const noexcept override { return 2; }
};

Trace clean_trace(std::size_t n, std::uint64_t seed) {
    CleanEnv env;
    stats::Rng rng(seed);
    const UniformRandomPolicy logging(2);
    return collect_trace(env, logging, n, rng);
}

TEST(Audit, CleanTracePassesEveryCheck) {
    const Trace trace = clean_trace(800, 41);
    const UniformRandomPolicy target(2);
    const auto findings = audit_trace(trace, &target);
    EXPECT_TRUE(findings.empty())
        << "unexpected finding: " << (findings.empty() ? "" : findings[0].code);
}

TEST(Audit, FlagsInvalidPropensities) {
    Trace trace = clean_trace(100, 42);
    trace[3].propensity = 0.0;
    trace[7].propensity = 1.5;
    const auto findings = audit_trace(trace);
    ASSERT_TRUE(has_code(findings, "invalid-propensity"));
    EXPECT_EQ(findings[0].severity, AuditSeverity::kCritical);
    EXPECT_DOUBLE_EQ(findings[0].metric, 2.0);
}

TEST(Audit, FlagsDeterministicLogging) {
    Trace trace = clean_trace(100, 43);
    for (std::size_t i = 0; i < trace.size(); ++i) trace[i].propensity = 1.0;
    const auto findings = audit_trace(trace);
    EXPECT_TRUE(has_code(findings, "deterministic-logging"));
    EXPECT_STREQ(to_string(findings[0].severity), "critical");
}

TEST(Audit, FlagsThinSupport) {
    Trace trace = clean_trace(200, 44);
    trace[11].propensity = 1e-5;
    const auto findings = audit_trace(trace);
    EXPECT_TRUE(has_code(findings, "thin-support"));
}

TEST(Audit, FlagsLowEssAndZeroOverlapForAMismatchedTarget) {
    // Logging is heavily skewed toward decision 0; the target always picks 1.
    CleanEnv env;
    stats::Rng rng(45);
    auto base = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext&) { return Decision{0}; });
    const EpsilonGreedyPolicy logging(base, 0.02);
    const Trace trace = collect_trace(env, logging, 600, rng);
    const DeterministicPolicy target(2,
                                     [](const ClientContext&) { return Decision{1}; });
    const auto findings = audit_trace(trace, &target);
    EXPECT_TRUE(has_code(findings, "low-ess"));
    EXPECT_TRUE(has_code(findings, "zero-overlap"));
    // Without a target, the overlap checks are skipped entirely.
    const auto untargeted = audit_trace(trace);
    EXPECT_FALSE(has_code(untargeted, "low-ess"));
}

TEST(Audit, FlagsMiscalibratedPropensities) {
    Trace trace = clean_trace(600, 46);
    // Halve every logged propensity: weights double on average.
    for (std::size_t i = 0; i < trace.size(); ++i) trace[i].propensity *= 0.5;
    const UniformRandomPolicy target(2);
    const auto findings = audit_trace(trace, &target);
    const AuditFinding* mismatch = find_code(findings, "propensity-mismatch");
    ASSERT_NE(mismatch, nullptr);
    EXPECT_NE(mismatch->message.find("logged propensities are inconsistent"),
              std::string::npos)
        << mismatch->message;
    EXPECT_EQ(mismatch->message.find("learned"), std::string::npos)
        << mismatch->message;
}

// A greedy target fit on the evaluated tuples. Every context is unique, so
// the tabular model memorizes each logged reward, and the target replays
// the logged decision whenever that reward beats the other decisions'
// means (about half the time). With four uniformly logged decisions the
// mean weight is then near 2 although the logged propensities are honest,
// and the finding names the in-sample fit.
TEST(Audit, PropensityMismatchNamesInSampleFitOfLearnedTarget) {
    stats::Rng rng(48);
    Trace trace;
    for (int i = 0; i < 600; ++i) {
        LoggedTuple t;
        t.context = ClientContext({rng.normal()});
        t.decision = static_cast<Decision>(rng.uniform_index(4));
        t.reward = 0.3 * t.context.numeric[0] + 0.5 * rng.normal();
        t.propensity = 0.25;
        trace.add(std::move(t));
    }
    const auto target =
        learn_greedy_policy(trace, RewardModelKind::kTabular, 4);
    const auto findings = audit_trace(trace, target.get());
    const AuditFinding* mismatch = find_code(findings, "propensity-mismatch");
    ASSERT_NE(mismatch, nullptr);
    EXPECT_GT(mismatch->metric, 1.25);
    EXPECT_NE(mismatch->message.find("learned from a reward model"),
              std::string::npos)
        << mismatch->message;
    EXPECT_NE(mismatch->message.find("dre_tune --offline"), std::string::npos)
        << mismatch->message;
}

TEST(Audit, FlagsRewardDrift) {
    Trace trace = clean_trace(600, 47);
    for (std::size_t i = 300; i < trace.size(); ++i) trace[i].reward += 3.0;
    const auto findings = audit_trace(trace);
    EXPECT_TRUE(has_code(findings, "reward-drift"));
    // The same shift confined to each decision also trips the
    // within-decision check (it is a reward shift the context can't explain).
    EXPECT_TRUE(has_code(findings, "within-decision-shift"));
}

TEST(Audit, FlagsContextShift) {
    CleanEnv env;
    stats::Rng rng(48);
    const UniformRandomPolicy logging(2);
    Trace trace = collect_trace(env, logging, 600, rng);
    for (std::size_t i = 300; i < trace.size(); ++i)
        trace[i].context.numeric[0] += 2.0; // population moved
    const auto findings = audit_trace(trace);
    EXPECT_TRUE(has_code(findings, "context-shift"));
}

TEST(Audit, FlagsLoggingPolicyDrift) {
    CleanEnv env;
    stats::Rng rng(49);
    auto favour0 = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext&) { return Decision{0}; });
    auto favour1 = std::make_shared<DeterministicPolicy>(
        2, [](const ClientContext&) { return Decision{1}; });
    const EpsilonGreedyPolicy first(favour0, 0.2), second(favour1, 0.2);
    Trace trace = collect_trace(env, first, 300, rng);
    const Trace tail = collect_trace(env, second, 300, rng);
    for (std::size_t i = 0; i < tail.size(); ++i) trace.add(tail[i]);
    const auto findings = audit_trace(trace);
    EXPECT_TRUE(has_code(findings, "logging-policy-drift"));
}

TEST(Audit, SmallTracesOnlyGetStructuralChecks) {
    Trace trace = clean_trace(30, 50); // below min_tuples
    for (std::size_t i = 15; i < trace.size(); ++i) trace[i].reward += 5.0;
    const auto findings = audit_trace(trace);
    EXPECT_FALSE(has_code(findings, "reward-drift")); // statistical: skipped
    trace[0].propensity = -1.0;
    EXPECT_TRUE(has_code(audit_trace(trace), "invalid-propensity"));
    EXPECT_THROW(audit_trace(Trace{}), std::invalid_argument);
}

TEST(Audit, CriticalStructuralDefectsShortCircuitTheStatisticalChecks) {
    // With invalid propensities, the statistical machinery is unsound (the
    // library's own validators would reject the trace), so the audit stops
    // at the structural findings instead of crashing or reporting noise.
    Trace trace = clean_trace(600, 51);
    for (std::size_t i = 300; i < trace.size(); ++i) trace[i].reward += 3.0;
    trace[5].propensity = 2.0; // critical
    const auto findings = audit_trace(trace);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, AuditSeverity::kCritical);
    EXPECT_EQ(findings[0].code, "invalid-propensity");
}

} // namespace
} // namespace dre::core
