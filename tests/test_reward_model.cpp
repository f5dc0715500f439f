#include "core/reward_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

LoggedTuple tuple(ClientContext::Numeric numeric,
                  ClientContext::Categorical cat, Decision d, double reward) {
    LoggedTuple t;
    t.context.numeric = std::move(numeric);
    t.context.categorical = std::move(cat);
    t.decision = d;
    t.reward = reward;
    t.propensity = 0.5;
    return t;
}

TEST(ConstantRewardModel, AlwaysReturnsValue) {
    ConstantRewardModel model(3, 1.25);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext{}, 0), 1.25);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext{}, 2), 1.25);
    EXPECT_THROW(ConstantRewardModel(0, 1.0), std::invalid_argument);
}

TEST(OracleRewardModel, DelegatesToFunction) {
    OracleRewardModel model(2, [](const ClientContext& c, Decision d) {
        return c.numeric.at(0) + d;
    });
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({3.0}, {}), 1), 4.0);
    EXPECT_THROW(model.predict(ClientContext({3.0}, {}), 5), std::out_of_range);
    EXPECT_THROW(OracleRewardModel(2, nullptr), std::invalid_argument);
}

TEST(TabularRewardModel, ExactCellMeans) {
    Trace trace;
    trace.add(tuple({}, {1}, 0, 2.0));
    trace.add(tuple({}, {1}, 0, 4.0));
    trace.add(tuple({}, {2}, 0, 10.0));
    trace.add(tuple({}, {1}, 1, -1.0));
    TabularRewardModel model(2);
    model.fit(trace);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({}, {1}), 0), 3.0);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({}, {2}), 0), 10.0);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({}, {1}), 1), -1.0);
    EXPECT_EQ(model.cells(), 3u);
}

TEST(TabularRewardModel, FallsBackToDecisionThenGlobalMean) {
    Trace trace;
    trace.add(tuple({}, {1}, 0, 2.0));
    trace.add(tuple({}, {2}, 0, 4.0));
    TabularRewardModel model(2);
    model.fit(trace);
    // Unseen context, seen decision -> decision mean 3.
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({}, {9}), 0), 3.0);
    // Unseen decision entirely -> global mean 3.
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({}, {9}), 1), 3.0);
}

TEST(TabularRewardModel, PredictBeforeFitThrows) {
    TabularRewardModel model(2);
    EXPECT_THROW(model.predict(ClientContext{}, 0), std::logic_error);
}

// predict_row is one fingerprint and one probe per row; it must write
// exactly what predict(c, d) returns for every d, whether the context was
// seen at every decision, at some, or never, and for a decision no tuple
// logged (3 of 4), which falls back to the global mean.
TEST(TabularRewardModel, PredictRowMatchesPredictBitwise) {
    stats::Rng rng(5);
    Trace trace;
    for (int i = 0; i < 300; ++i) {
        const auto d = static_cast<Decision>(rng.uniform_index(3));
        trace.add(tuple({0.5}, {0}, d, rng.normal(1.0, 0.3))); // all of 0..2
        if (d != 2) trace.add(tuple({}, {1, 4}, d, rng.normal(2.0, 0.7)));
    }
    trace.add(tuple({1.0 / 3.0}, {}, 1, 0.1)); // one cell
    TabularRewardModel model(4);
    model.fit(trace);
    const std::vector<ClientContext> contexts = {
        ClientContext({0.5}, {0}), ClientContext({}, {1, 4}),
        ClientContext({1.0 / 3.0}, {}), ClientContext({0.5}, {1}),
        ClientContext{}};
    for (std::size_t i = 0; i < contexts.size(); ++i) {
        double row[4];
        model.predict_row(contexts[i], row);
        for (Decision d = 0; d < 4; ++d) {
            const double want = model.predict(contexts[i], d);
            EXPECT_EQ(std::memcmp(&row[d], &want, sizeof(double)), 0)
                << "context " << i << " d=" << d;
        }
    }
    EXPECT_EQ(model.predict(ClientContext({0.5}, {0}), 3),
              model.predict(ClientContext{}, 3)); // never logged
}

// The tabular fit's independent reference: a running mean per
// (context fingerprint, decision) pair in a std::map, updated in trace
// order, and the fallback row (the decision's mean, else the global mean).
class TabularReference {
public:
    TabularReference(const Trace& trace, std::size_t num_decisions)
        : decision_means_(num_decisions) {
        for (const LoggedTuple& t : trace) {
            cells_[{context_fingerprint(t.context), t.decision}].add(t.reward);
            decision_means_[static_cast<std::size_t>(t.decision)].add(t.reward);
            global_mean_.add(t.reward);
        }
    }

    std::size_t cells() const { return cells_.size(); }

    double predict(const ClientContext& context, Decision d) const {
        const auto it = cells_.find({context_fingerprint(context), d});
        if (it != cells_.end()) return it->second.mean;
        const RunningMean& decision = decision_means_[static_cast<std::size_t>(d)];
        return decision.count > 0 ? decision.mean : global_mean_.mean;
    }

private:
    struct RunningMean {
        double mean = 0.0;
        std::size_t count = 0;
        void add(double x) {
            ++count;
            mean += (x - mean) / static_cast<double>(count);
        }
    };

    std::map<std::pair<std::uint64_t, Decision>, RunningMean> cells_;
    std::vector<RunningMean> decision_means_;
    RunningMean global_mean_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// predict_row and predict against the reference, bitwise, for every
// context of `trace` and every context of `probes`, seen or not, and
// cells() against the reference's pair count.
void expect_matches_reference(const TabularRewardModel& model, const Trace& trace,
                              const std::vector<ClientContext>& probes) {
    const std::size_t n = model.num_decisions();
    const TabularReference reference(trace, n);
    EXPECT_EQ(model.cells(), reference.cells());
    std::vector<const ClientContext*> contexts;
    std::set<std::uint64_t> seen;
    for (const LoggedTuple& t : trace)
        if (seen.insert(context_fingerprint(t.context)).second)
            contexts.push_back(&t.context);
    for (const ClientContext& c : probes) contexts.push_back(&c);

    std::size_t mismatches = 0;
    std::string first;
    std::vector<double> row(n);
    for (std::size_t i = 0; i < contexts.size(); ++i) {
        const ClientContext* c = contexts[i];
        model.predict_row(*c, row.data());
        for (std::size_t d = 0; d < n; ++d) {
            const auto decision = static_cast<Decision>(d);
            const double want = reference.predict(*c, decision);
            if (bits(row[d]) == bits(want) &&
                bits(model.predict(*c, decision)) == bits(want))
                continue;
            if (mismatches++ == 0)
                first = "context " + std::to_string(i) + " d=" + std::to_string(d);
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << contexts.size() * n
                              << " cells; first: " << first;
}

Trace cdn_trace(std::size_t n) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(12);
    return collect_trace(env, logging, n, rng);
}

// cells() counts distinct (context fingerprint, decision) pairs, and every
// row matches the reference: on 2,000 tuples over 35 categorical contexts;
// an empty trace; one tuple; 50,000 cdn tuples, every context unique, so
// the table is large and its probe runs long; their categorical-only copy,
// whose repeated contexts chain up to 12 cells each and leave the fit to
// shrink its arrays; and one model refit from large to small and back.
TEST(TabularRewardModel, CellsCountDistinctContextDecisionPairs) {
    stats::Rng rng(6);
    Trace trace;
    std::set<std::pair<std::uint64_t, Decision>> distinct;
    for (int i = 0; i < 2000; ++i) {
        LoggedTuple t = tuple({}, {static_cast<std::int32_t>(rng.uniform_index(7)),
                                   static_cast<std::int32_t>(rng.uniform_index(5))},
                              static_cast<Decision>(rng.uniform_index(6)),
                              rng.normal());
        distinct.emplace(context_fingerprint(t.context), t.decision);
        trace.add(std::move(t));
    }
    TabularRewardModel model(6);
    model.fit(trace);
    EXPECT_EQ(model.cells(), distinct.size());
    EXPECT_LT(model.cells(), trace.size());
    expect_matches_reference(model, trace,
                             {ClientContext{}, ClientContext({}, {7, 0})});

    const Trace cdn = cdn_trace(50000);
    Trace categorical = cdn;
    for (LoggedTuple& t : categorical) t.context.numeric.clear();
    const Trace empty;
    Trace one;
    one.add(cdn[0]);
    // Probes beside each trace's own contexts: the first cdn contexts, one
    // ulp away, categorical-only and with a category no tuple has.
    std::vector<ClientContext> probes{ClientContext{}};
    for (std::size_t i = 0; i < 100; ++i) {
        ClientContext c = cdn[i].context;
        probes.push_back(c);
        c.numeric[0] = std::nextafter(c.numeric[0], 1e300);
        probes.push_back(c);
        c.numeric.clear();
        probes.push_back(c);
        c.categorical.push_back(1000);
        probes.push_back(c);
    }

    std::set<std::uint64_t> categorical_contexts;
    for (const LoggedTuple& t : categorical)
        categorical_contexts.insert(context_fingerprint(t.context));
    TabularRewardModel chained(12);
    chained.fit(categorical);
    EXPECT_GT(chained.cells(), categorical_contexts.size());
    EXPECT_LT(chained.cells(), categorical.size());

    const std::vector<std::pair<const char*, const Trace*>> inputs = {
        {"empty", &empty}, {"one tuple", &one}, {"cdn", &cdn},
        {"categorical", &categorical}};
    for (const auto& [name, input] : inputs) {
        SCOPED_TRACE(name);
        TabularRewardModel fresh(12);
        fresh.fit(*input);
        expect_matches_reference(fresh, *input, probes);
    }
    // One model refit from large to small and back. On the way it passes
    // every slot count up to 128 at up to half full, where some probes
    // wrap at the end of the slot array.
    TabularRewardModel refit(12);
    refit.fit(cdn);
    Trace prefix;
    for (std::size_t k = 1; k <= 64; ++k) {
        prefix.add(cdn[k - 1]);
        SCOPED_TRACE("refit to " + std::to_string(k) + " tuples");
        refit.fit(prefix);
        expect_matches_reference(refit, prefix, probes);
    }
    for (const auto& [name, input] : {inputs[3], inputs[0], inputs[2]}) {
        SCOPED_TRACE(std::string("refit to ") + name);
        refit.fit(*input);
        expect_matches_reference(refit, *input, probes);
    }
}

// A fit that throws leaves the previous fit in place: fit two cells of one
// context, then refit on a trace whose second tuple logs decision 5 of 2.
template <typename Model>
void expect_failed_refit_keeps_previous_fit(Model& model) {
    const ClientContext c({1.0}, {0});
    Trace good;
    good.add(tuple({1.0}, {0}, 0, 1.0));
    good.add(tuple({1.0}, {0}, 1, 3.0));
    model.fit(good);
    const double before0 = model.predict(c, 0);
    const double before1 = model.predict(c, 1);
    EXPECT_NEAR(before0, 1.0, 1e-3);
    EXPECT_NEAR(before1, 3.0, 1e-3);

    Trace bad;
    bad.add(tuple({1.0}, {0}, 0, 7.0));
    bad.add(tuple({1.0}, {0}, 5, 7.0));
    EXPECT_THROW(model.fit(bad), std::out_of_range);
    EXPECT_EQ(model.predict(c, 0), before0);
    EXPECT_EQ(model.predict(c, 1), before1);
}

TEST(TabularRewardModel, FailedRefitKeepsPreviousFit) {
    TabularRewardModel model(2);
    expect_failed_refit_keeps_previous_fit(model);
    EXPECT_EQ(model.predict(ClientContext({1.0}, {0}), 0), 1.0);
    EXPECT_EQ(model.cells(), 2u);
}

TEST(LinearRewardModel, LearnsPerDecisionLinearRewards) {
    stats::Rng rng(1);
    Trace trace;
    for (int i = 0; i < 600; ++i) {
        const double x = rng.uniform(-2.0, 2.0);
        const auto d = static_cast<Decision>(rng.uniform_index(2));
        const double reward = d == 0 ? 2.0 * x + 1.0 : -x;
        trace.add(tuple({x}, {}, d, reward + rng.normal(0.0, 0.05)));
    }
    LinearRewardModel model(2);
    model.fit(trace);
    EXPECT_NEAR(model.predict(ClientContext({1.0}, {}), 0), 3.0, 0.1);
    EXPECT_NEAR(model.predict(ClientContext({1.0}, {}), 1), -1.0, 0.1);
}

TEST(LinearRewardModel, UnseenDecisionFallsBackToGlobalMean) {
    Trace trace;
    trace.add(tuple({1.0}, {}, 0, 2.0));
    trace.add(tuple({2.0}, {}, 0, 4.0));
    LinearRewardModel model(3);
    model.fit(trace);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({1.0}, {}), 2), 3.0);
}

TEST(LinearRewardModel, FailedRefitKeepsPreviousFit) {
    LinearRewardModel model(2);
    expect_failed_refit_keeps_previous_fit(model);
}

TEST(KnnRewardModel, LocalAveraging) {
    Trace trace;
    trace.add(tuple({0.0}, {}, 0, 1.0));
    trace.add(tuple({0.1}, {}, 0, 3.0));
    trace.add(tuple({5.0}, {}, 0, 100.0));
    KnnRewardModel model(1, 2);
    model.fit(trace);
    EXPECT_DOUBLE_EQ(model.predict(ClientContext({0.05}, {}), 0), 2.0);
}

TEST(KnnRewardModel, SeparatesDecisions) {
    stats::Rng rng(2);
    Trace trace;
    for (int i = 0; i < 200; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        trace.add(tuple({x}, {}, 0, 5.0 + rng.normal(0.0, 0.01)));
        trace.add(tuple({x}, {}, 1, -5.0 + rng.normal(0.0, 0.01)));
    }
    KnnRewardModel model(2, 5);
    model.fit(trace);
    EXPECT_NEAR(model.predict(ClientContext({0.5}, {}), 0), 5.0, 0.1);
    EXPECT_NEAR(model.predict(ClientContext({0.5}, {}), 1), -5.0, 0.1);
}

TEST(KnnRewardModel, FailedRefitKeepsPreviousFit) {
    KnnRewardModel model(2, 1);
    expect_failed_refit_keeps_previous_fit(model);
    EXPECT_EQ(model.predict(ClientContext({1.0}, {0}), 1), 3.0);
}

TEST(FitRewardModel, FactoryProducesEachKind) {
    Trace trace;
    trace.add(tuple({1.0}, {0}, 0, 1.0));
    trace.add(tuple({2.0}, {1}, 1, 2.0));
    for (const auto kind : {RewardModelKind::kTabular, RewardModelKind::kLinear,
                            RewardModelKind::kKnn}) {
        const auto model = fit_reward_model(kind, 2, trace);
        ASSERT_NE(model, nullptr);
        EXPECT_EQ(model->num_decisions(), 2u);
        EXPECT_NO_THROW(model->predict(trace[0].context, 0));
    }
}

} // namespace
} // namespace dre::core
