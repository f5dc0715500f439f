#include "video/evaluation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimators.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "video/session.h"

namespace dre::video {
namespace {

SimulatorConfig default_config(double epsilon = 0.0) {
    SimulatorConfig config;
    config.session.chunks = 100;
    config.epsilon = epsilon;
    return config;
}

TEST(BitrateLadder, BasicAccessors) {
    const BitrateLadder ladder = BitrateLadder::standard5();
    EXPECT_EQ(ladder.levels(), 5u);
    EXPECT_EQ(ladder.highest(), 4u);
    EXPECT_DOUBLE_EQ(ladder.mbps(0), 0.35);
    EXPECT_THROW(ladder.mbps(9), std::out_of_range);
    EXPECT_THROW(BitrateLadder({1.0, 0.5}), std::invalid_argument);
    EXPECT_THROW(BitrateLadder({}), std::invalid_argument);
}

TEST(TcpEfficiency, MonotoneIncreasingAndBounded) {
    const TcpEfficiency p;
    double previous = 0.0;
    for (double r : {0.35, 0.75, 1.5, 2.8, 4.5}) {
        const double eff = p(r);
        EXPECT_GT(eff, previous);
        EXPECT_GT(eff, 0.0);
        EXPECT_LE(eff, 1.0);
        previous = eff;
    }
    EXPECT_THROW(p(0.0), std::invalid_argument);
}

TEST(Qoe, PenalizesRebufferAndSwitches) {
    const QoeParams qoe;
    const double smooth = qoe.chunk_qoe(2.8, 0.0, 2.8);
    EXPECT_LT(qoe.chunk_qoe(2.8, 1.0, 2.8), smooth);
    EXPECT_LT(qoe.chunk_qoe(2.8, 0.0, 0.35), smooth);
    EXPECT_DOUBLE_EQ(smooth, 2.8);
}

TEST(BufferBasedAbr, FollowsBufferLevel) {
    const BufferBasedAbr bba(5.0, 10.0);
    const BitrateLadder ladder = BitrateLadder::standard5();
    const SessionConfig session;
    const QoeParams qoe;
    AbrState low{.buffer_s = 1.0};
    AbrState mid{.buffer_s = 10.0};
    AbrState high{.buffer_s = 19.0};
    EXPECT_EQ(bba.choose(low, ladder, session, qoe), 0u);
    EXPECT_EQ(bba.choose(high, ladder, session, qoe), ladder.highest());
    const std::size_t mid_level = bba.choose(mid, ladder, session, qoe);
    EXPECT_GT(mid_level, 0u);
    EXPECT_LT(mid_level, ladder.highest());
}

TEST(MpcAbr, PicksHighBitrateWhenThroughputIsAmple) {
    const MpcAbr mpc(3);
    const BitrateLadder ladder = BitrateLadder::standard5();
    AbrState state{.buffer_s = 15.0, .predicted_throughput_mbps = 20.0,
                   .previous_level = 4};
    EXPECT_EQ(mpc.choose(state, ladder, SessionConfig{}, QoeParams{}),
              ladder.highest());
    AbrState starved{.buffer_s = 0.5, .predicted_throughput_mbps = 0.3,
                     .previous_level = 0};
    EXPECT_EQ(mpc.choose(starved, ladder, SessionConfig{}, QoeParams{}), 0u);
}

TEST(SessionSimulator, ProducesFullSessionRecord) {
    const SessionSimulator sim(default_config(0.1), BitrateLadder::standard5());
    const ConstantBandwidth bandwidth(3.0);
    stats::Rng rng(1);
    const BufferBasedAbr bba;
    const SessionRecord record = sim.simulate(bba, bandwidth, rng);
    ASSERT_EQ(record.size(), 100u);
    for (const auto& chunk : record) {
        EXPECT_GT(chunk.logging_propensity, 0.0);
        EXPECT_LE(chunk.logging_propensity, 1.0);
        EXPECT_GT(chunk.observed_throughput_mbps, 0.0);
        EXPECT_GE(chunk.rebuffer_s, 0.0);
    }
}

TEST(SessionSimulator, ObservedThroughputDependsOnBitrate) {
    // The Fig. 2 mechanism: low bitrates observe lower throughput.
    SimulatorConfig config = default_config(1.0); // fully random bitrates
    const SessionSimulator sim(config, BitrateLadder::standard5());
    const ConstantBandwidth bandwidth(3.0, 0.0);
    stats::Rng rng(2);
    const BufferBasedAbr bba;
    stats::Accumulator low, high;
    for (int s = 0; s < 20; ++s) {
        const SessionRecord record = sim.simulate(bba, bandwidth, rng);
        for (const auto& chunk : record) {
            if (chunk.level == 0) low.add(chunk.observed_throughput_mbps);
            if (chunk.level == 4) high.add(chunk.observed_throughput_mbps);
        }
    }
    ASSERT_GT(low.count(), 10u);
    ASSERT_GT(high.count(), 10u);
    EXPECT_LT(low.mean(), high.mean());
}

TEST(SessionToTrace, RoundTripsStateAndPropensities) {
    const SessionSimulator sim(default_config(0.2), BitrateLadder::standard5());
    const ConstantBandwidth bandwidth(2.5);
    stats::Rng rng(3);
    const BufferBasedAbr bba;
    const SessionRecord record = sim.simulate(bba, bandwidth, rng);
    const Trace trace = to_trace(record);
    ASSERT_EQ(trace.size(), record.size());
    EXPECT_NO_THROW(validate_trace(trace));
    for (std::size_t k = 0; k < trace.size(); ++k) {
        const AbrState state = state_from_context(trace[k].context);
        EXPECT_DOUBLE_EQ(state.buffer_s, record[k].state.buffer_s);
        EXPECT_EQ(state.previous_level, record[k].state.previous_level);
        EXPECT_DOUBLE_EQ(observed_throughput_from_context(trace[k].context),
                         record[k].observed_throughput_mbps);
    }
    EXPECT_THROW(state_from_context(ClientContext{}), std::invalid_argument);
}

TEST(AbrPolicyAdapter, DeterministicAndEpsilonForms) {
    const BitrateLadder ladder = BitrateLadder::standard5();
    const BufferBasedAbr bba;
    const AbrPolicyAdapter deterministic(bba, ladder, SessionConfig{}, QoeParams{});
    const AbrPolicyAdapter randomized(bba, ladder, SessionConfig{}, QoeParams{}, 0.5);

    ClientContext context;
    context.numeric = {15.0, 3.0, 0.0, 2.0}; // high buffer
    context.categorical = {2};
    const auto probs = deterministic.action_probabilities(context);
    EXPECT_DOUBLE_EQ(probs[ladder.highest()], 1.0);
    const auto soft = randomized.action_probabilities(context);
    EXPECT_NEAR(soft[ladder.highest()], 0.5 + 0.1, 1e-12);
}

TEST(NaiveChunkModel, MatchesManualQoeAtPredictedThroughput) {
    const BitrateLadder ladder = BitrateLadder::standard5();
    const NaiveChunkModel model(ladder, SessionConfig{}, QoeParams{});
    ClientContext context;
    const double predicted = 2.0, buffer = 3.0;
    context.numeric = {buffer, predicted, 5.0, 1.8};
    context.categorical = {1};
    const double bitrate = ladder.mbps(3);
    const double download = bitrate * 4.0 / predicted;
    const double rebuffer = std::max(0.0, download - buffer);
    const double expected =
        QoeParams{}.chunk_qoe(bitrate, rebuffer, ladder.mbps(1));
    EXPECT_NEAR(model.predict(context, 3), expected, 1e-12);
    EXPECT_THROW(model.predict(context, 9), std::out_of_range);
}

TEST(NaiveChunkModel, OverestimatesDownloadTimeForHigherBitrates) {
    // Observed throughput came from a *low* bitrate; the naive model applies
    // it to a high bitrate and under-predicts the achievable QoE relative to
    // reality (where p(r) would be higher).
    const BitrateLadder ladder = BitrateLadder::standard5();
    const TcpEfficiency eff;
    const double bandwidth = 3.0;
    ClientContext context;
    const double observed_low = bandwidth * eff(ladder.mbps(0));
    context.numeric = {2.0, observed_low, 10.0, observed_low}; // small buffer
    context.categorical = {0};
    const NaiveChunkModel model(ladder, SessionConfig{}, QoeParams{});
    const double naive_high = model.predict(context, 4);

    // Reality: throughput for the high bitrate is bandwidth * eff(high).
    const double real_thr = bandwidth * eff(ladder.mbps(4));
    const double download = ladder.mbps(4) * 4.0 / real_thr;
    const double rebuffer = std::max(0.0, download - 2.0);
    const double real_qoe = QoeParams{}.chunk_qoe(ladder.mbps(4), rebuffer,
                                                  ladder.mbps(0));
    EXPECT_LT(naive_high, real_qoe);
}

TEST(ReplaySessionNaive, DiffersFromGroundTruth) {
    const SimulatorConfig config = default_config(0.2);
    const SessionSimulator sim(config, BitrateLadder::standard5());
    const ConstantBandwidth bandwidth(2.0);
    stats::Rng rng(5);
    const BufferBasedAbr bba;
    const MpcAbr mpc(3);
    const SessionRecord logged = sim.simulate(bba, bandwidth, rng);
    const double naive = replay_session_naive(logged, mpc, sim.ladder(),
                                              config.session, config.qoe);
    const double truth = sim.true_mean_qoe(mpc, bandwidth, rng, 16);
    EXPECT_TRUE(std::isfinite(naive));
    // The replay is biased; it should not coincide with the truth.
    EXPECT_GT(std::fabs(naive - truth), 1e-3);
    EXPECT_THROW(replay_session_naive({}, mpc, sim.ladder(), config.session,
                                      config.qoe),
                 std::invalid_argument);
}

TEST(Fig7bShape, DrBeatsNaiveReplayOnAverage) {
    // A miniature of the Fig. 7b experiment (fewer runs to stay fast).
    SimulatorConfig config = default_config(0.1);
    const SessionSimulator sim(config, BitrateLadder::standard5());
    const ConstantBandwidth bandwidth(2.0);
    stats::Rng rng(6);
    const BufferBasedAbr bba;
    const MpcAbr mpc(3);
    const double truth = sim.true_mean_qoe(mpc, bandwidth, rng, 64);

    stats::Accumulator naive_err, dr_err;
    for (int run = 0; run < 24; ++run) {
        const SessionRecord logged = sim.simulate(bba, bandwidth, rng);
        const Trace trace = to_trace(logged);
        const double naive = replay_session_naive(
            logged, mpc, sim.ladder(), config.session, config.qoe);
        const NaiveChunkModel model(sim.ladder(), config.session, config.qoe);
        const AbrPolicyAdapter target(mpc, sim.ladder(), config.session,
                                      config.qoe);
        const double dr = core::doubly_robust(trace, target, model).value;
        naive_err.add(std::fabs(naive - truth));
        dr_err.add(std::fabs(dr - truth));
    }
    EXPECT_LT(dr_err.mean(), naive_err.mean());
}

} // namespace
} // namespace dre::video
