#include "video/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/ewma.h"
#include "video/bandwidth.h"

namespace dre::video {

SessionSimulator::SessionSimulator(SimulatorConfig config, BitrateLadder ladder)
    : config_(config), ladder_(std::move(ladder)) {
    if (config_.epsilon < 0.0 || config_.epsilon > 1.0)
        throw std::invalid_argument("SessionSimulator: epsilon outside [0,1]");
    if (config_.session.chunks == 0)
        throw std::invalid_argument("SessionSimulator: zero chunks");
    if (config_.session.chunk_seconds <= 0.0)
        throw std::invalid_argument("SessionSimulator: chunk length must be > 0");
}

SessionRecord SessionSimulator::simulate(const AbrAlgorithm& abr,
                                         const BandwidthProcess& bandwidth,
                                         stats::Rng& rng) const {
    SessionRecord record;
    record.reserve(config_.session.chunks);

    AbrState state;
    state.buffer_s = config_.session.start_buffer_s;
    state.previous_level = 0;
    // Until the first chunk completes, the predictor only has a prior.
    state.predicted_throughput_mbps = ladder_.mbps(0) * 2.0;

    // Harmonic-mean throughput predictor over the last few chunks.
    stats::SlidingWindow recent_throughput(5);

    const std::size_t levels = ladder_.levels();
    for (std::size_t k = 0; k < config_.session.chunks; ++k) {
        state.chunk_index = k;

        const std::size_t greedy = abr.choose(state, ladder_, config_.session,
                                              config_.qoe);
        std::size_t level = greedy;
        if (config_.epsilon > 0.0 && rng.bernoulli(config_.epsilon))
            level = rng.uniform_index(levels);
        const double propensity =
            config_.epsilon == 0.0
                ? (level == greedy ? 1.0 : 0.0)
                : (level == greedy ? 1.0 - config_.epsilon +
                                         config_.epsilon / static_cast<double>(levels)
                                   : config_.epsilon / static_cast<double>(levels));

        const double bitrate = ladder_.mbps(level);
        const double available = bandwidth.bandwidth_mbps(k, rng);
        // The core generative fact: observed throughput depends on bitrate.
        const double observed = available * config_.efficiency(bitrate);
        const double chunk_mbits = bitrate * config_.session.chunk_seconds;
        const double download_s = chunk_mbits / std::max(observed, 1e-3);
        const double rebuffer_s = std::max(0.0, download_s - state.buffer_s);

        ChunkRecord chunk;
        chunk.state = state;
        chunk.level = level;
        chunk.logging_propensity = propensity;
        chunk.observed_throughput_mbps = observed;
        chunk.download_s = download_s;
        chunk.rebuffer_s = rebuffer_s;
        chunk.qoe = config_.qoe.chunk_qoe(bitrate, rebuffer_s,
                                          ladder_.mbps(state.previous_level));
        record.push_back(chunk);

        // Buffer dynamics.
        double buffer = std::max(state.buffer_s - download_s, 0.0) +
                        config_.session.chunk_seconds;
        state.buffer_s = std::min(buffer, config_.session.max_buffer_s);
        state.previous_level = level;

        // Throughput predictor (harmonic mean of observed throughputs — it
        // does NOT know about p(r); that is the evaluator's blind spot too).
        recent_throughput.add(observed);
        state.predicted_throughput_mbps = recent_throughput.harmonic_mean();
    }
    return record;
}

double SessionSimulator::true_mean_qoe(const AbrAlgorithm& abr,
                                       const BandwidthProcess& bandwidth,
                                       stats::Rng& rng, int replicates) const {
    if (replicates <= 0)
        throw std::invalid_argument("true_mean_qoe: replicates must be > 0");
    SimulatorConfig deterministic = config_;
    deterministic.epsilon = 0.0;
    const SessionSimulator ground_truth(deterministic, ladder_);
    double total = 0.0;
    for (int r = 0; r < replicates; ++r) {
        const SessionRecord record = ground_truth.simulate(abr, bandwidth, rng);
        double session_total = 0.0;
        for (const auto& chunk : record) session_total += chunk.qoe;
        total += session_total / static_cast<double>(record.size());
    }
    return total / replicates;
}

Trace to_trace(const SessionRecord& record) {
    Trace trace;
    trace.reserve(record.size());
    for (const auto& chunk : record) {
        LoggedTuple t;
        t.context.numeric = {chunk.state.buffer_s,
                             chunk.state.predicted_throughput_mbps,
                             static_cast<double>(chunk.state.chunk_index),
                             chunk.observed_throughput_mbps};
        t.context.categorical = {static_cast<std::int32_t>(chunk.state.previous_level)};
        t.decision = static_cast<Decision>(chunk.level);
        t.reward = chunk.qoe;
        t.propensity = std::max(chunk.logging_propensity, 1e-12);
        trace.add(std::move(t));
    }
    return trace;
}

AbrState state_from_context(const ClientContext& context) {
    if (context.numeric.size() != 4 || context.categorical.size() != 1)
        throw std::invalid_argument("state_from_context: not an ABR context");
    AbrState state;
    state.buffer_s = context.numeric[0];
    state.predicted_throughput_mbps = context.numeric[1];
    state.chunk_index = static_cast<std::size_t>(context.numeric[2]);
    state.previous_level = static_cast<std::size_t>(context.categorical[0]);
    return state;
}

double observed_throughput_from_context(const ClientContext& context) {
    if (context.numeric.size() != 4)
        throw std::invalid_argument("observed_throughput_from_context: not an ABR context");
    return context.numeric[3];
}

} // namespace dre::video
