// Algebraic invariants of the estimators.
//
// These are exact properties, not statistical ones: each test states a
// transformation of the input (rewards, tuple order, trace replication,
// policy mixtures) and the transformation of the output it must produce,
// and checks equality to floating-point tolerance. They complement the
// Monte-Carlo property suites by failing deterministically on estimator
// bookkeeping bugs (a dropped weight, a wrong normalizer) that noisy
// convergence tests can absorb.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/environment.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::core {
namespace {

// A small discrete environment so the tabular model has real cells.
class GridEnv final : public Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({}, {static_cast<std::int32_t>(rng.uniform_index(3))});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return 0.5 * c.categorical[0] + 0.3 * static_cast<double>(d) +
               0.2 * rng.normal();
    }
    std::size_t num_decisions() const noexcept override { return 3; }
};

struct Fixture {
    Trace trace;
    std::shared_ptr<SoftmaxPolicy> target;
    std::shared_ptr<TabularRewardModel> model;

    explicit Fixture(std::uint64_t seed) {
        GridEnv env;
        stats::Rng rng(seed);
        const UniformRandomPolicy logging(3);
        trace = collect_trace(env, logging, 400, rng);
        target = std::make_shared<SoftmaxPolicy>(
            3,
            [](const ClientContext& c, Decision d) {
                return 0.4 * c.categorical[0] * static_cast<double>(d);
            },
            0.7);
        model = std::make_shared<TabularRewardModel>(3);
        model->fit(trace);
    }
};

Trace transform_rewards(const Trace& trace, double scale, double shift) {
    Trace out;
    out.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        LoggedTuple t = trace[i];
        t.reward = scale * t.reward + shift;
        out.add(std::move(t));
    }
    return out;
}

using EstimatorFn = EstimateResult (*)(const Trace&, const Policy&,
                                       const RewardModel&);

EstimateResult run_dm(const Trace& t, const Policy& p, const RewardModel& m) {
    return direct_method(t, p, m);
}
EstimateResult run_ips(const Trace& t, const Policy& p, const RewardModel&) {
    return inverse_propensity(t, p);
}
EstimateResult run_snips(const Trace& t, const Policy& p, const RewardModel&) {
    return self_normalized_ips(t, p);
}
EstimateResult run_dr(const Trace& t, const Policy& p, const RewardModel& m) {
    return doubly_robust(t, p, m);
}
EstimateResult run_sndr(const Trace& t, const Policy& p, const RewardModel& m) {
    return self_normalized_doubly_robust(t, p, m);
}

struct Case {
    const char* name;
    EstimatorFn fn;
    bool shift_equivariant; // value(r + b) == value(r) + b exactly
};

class EquivarianceTest : public ::testing::TestWithParam<Case> {};

// value(a * r) == a * value(r) for every estimator: all of them are
// positively homogeneous in the rewards once the model is refit.
TEST_P(EquivarianceTest, ScaleEquivariance) {
    const Fixture fx(101);
    const auto& [name, fn, shift_ok] = GetParam();
    const double base = fn(fx.trace, *fx.target, *fx.model).value;
    for (const double scale : {2.0, -0.5, 10.0}) {
        const Trace scaled = transform_rewards(fx.trace, scale, 0.0);
        TabularRewardModel model(3);
        model.fit(scaled);
        EXPECT_NEAR(fn(scaled, *fx.target, model).value, scale * base,
                    1e-9 * std::max(1.0, std::fabs(scale * base)))
            << name << " scale=" << scale;
    }
}

// Shifting all rewards by b shifts DM / SNIPS / DR / SN-DR by exactly b.
// Plain IPS is *not* shift-equivariant (its mean weight != 1 in any finite
// trace) — the parameterization records which contract each estimator makes.
TEST_P(EquivarianceTest, ShiftEquivariance) {
    const Fixture fx(102);
    const auto& [name, fn, shift_ok] = GetParam();
    if (!shift_ok) GTEST_SKIP() << name << " makes no shift contract";
    const double base = fn(fx.trace, *fx.target, *fx.model).value;
    for (const double shift : {1.0, -3.5, 100.0}) {
        const Trace shifted = transform_rewards(fx.trace, 1.0, shift);
        TabularRewardModel model(3);
        model.fit(shifted);
        EXPECT_NEAR(fn(shifted, *fx.target, model).value, base + shift,
                    1e-8 * std::max(1.0, std::fabs(base + shift)))
            << name << " shift=" << shift;
    }
}

// Estimators are averages over tuples: permuting the trace changes nothing.
TEST_P(EquivarianceTest, PermutationInvariance) {
    const Fixture fx(103);
    const auto& [name, fn, shift_ok] = GetParam();
    const double base = fn(fx.trace, *fx.target, *fx.model).value;
    stats::Rng rng(7);
    std::vector<std::size_t> order(fx.trace.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    Trace permuted;
    permuted.reserve(fx.trace.size());
    for (std::size_t i : order) permuted.add(fx.trace[i]);
    EXPECT_NEAR(fn(permuted, *fx.target, *fx.model).value, base, 1e-12) << name;
}

// Replicating every tuple k times leaves the estimate unchanged (and the
// variance-of-the-mean must shrink by ~k, since n grew).
TEST_P(EquivarianceTest, ReplicationInvariance) {
    const Fixture fx(104);
    const auto& [name, fn, shift_ok] = GetParam();
    const EstimateResult base = fn(fx.trace, *fx.target, *fx.model);
    Trace tripled;
    tripled.reserve(3 * fx.trace.size());
    for (int copy = 0; copy < 3; ++copy)
        for (std::size_t i = 0; i < fx.trace.size(); ++i) tripled.add(fx.trace[i]);
    const EstimateResult rep = fn(tripled, *fx.target, *fx.model);
    EXPECT_NEAR(rep.value, base.value, 1e-10) << name;
    // Exactly 1/3 up to the (n-1) vs (3n-1) Bessel factor.
    const auto variance_of_mean = [](const EstimateResult& r) {
        return stats::sample_variance(r.per_tuple) /
               static_cast<double>(r.per_tuple.size());
    };
    EXPECT_GT(variance_of_mean(rep), 0.30 * variance_of_mean(base)) << name;
    EXPECT_LT(variance_of_mean(rep), 0.36 * variance_of_mean(base)) << name;
}

// DM / IPS / DR are linear in the target policy: evaluating the alpha-blend
// of two policies equals the alpha-blend of the evaluations. (The
// self-normalized variants are deliberately nonlinear and are excluded via
// the flag reused from the shift contract — exactly the same set.)
TEST_P(EquivarianceTest, MixturePolicyLinearity) {
    const auto& [name, fn, shift_ok] = GetParam();
    if (fn == run_snips || fn == run_sndr)
        GTEST_SKIP() << name << " is self-normalized (nonlinear in the policy)";
    const Fixture fx(105);
    auto other = std::make_shared<DeterministicPolicy>(
        3, [](const ClientContext&) { return Decision{1}; });
    const double va = fn(fx.trace, *fx.target, *fx.model).value;
    const double vb = fn(fx.trace, *other, *fx.model).value;
    for (const double alpha : {0.25, 0.6, 0.9}) {
        const MixturePolicy blend(fx.target, other, alpha);
        EXPECT_NEAR(fn(fx.trace, blend, *fx.model).value,
                    alpha * va + (1.0 - alpha) * vb, 1e-10)
            << name << " alpha=" << alpha;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEstimators, EquivarianceTest,
    ::testing::Values(Case{"dm", run_dm, true}, Case{"ips", run_ips, false},
                      Case{"snips", run_snips, true}, Case{"dr", run_dr, true},
                      Case{"sndr", run_sndr, true}),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

} // namespace
} // namespace dre::core
