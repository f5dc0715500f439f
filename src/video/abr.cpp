#include "video/abr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dre::video {

BitrateLadder::BitrateLadder(std::vector<double> mbps) : mbps_(std::move(mbps)) {
    if (mbps_.empty()) throw std::invalid_argument("BitrateLadder: empty ladder");
    for (std::size_t i = 0; i < mbps_.size(); ++i) {
        if (mbps_[i] <= 0.0)
            throw std::invalid_argument("BitrateLadder: bitrates must be > 0");
        if (i > 0 && mbps_[i] <= mbps_[i - 1])
            throw std::invalid_argument("BitrateLadder: ladder must be ascending");
    }
}

double BitrateLadder::mbps(std::size_t level) const {
    if (level >= mbps_.size()) throw std::out_of_range("BitrateLadder::mbps");
    return mbps_[level];
}

BitrateLadder BitrateLadder::standard5() {
    return BitrateLadder({0.35, 0.75, 1.5, 2.8, 4.5});
}

double TcpEfficiency::operator()(double bitrate_mbps) const {
    if (bitrate_mbps <= 0.0)
        throw std::invalid_argument("TcpEfficiency: bitrate must be > 0");
    return floor + (1.0 - floor) * bitrate_mbps / (bitrate_mbps + half_rate);
}

double QoeParams::chunk_qoe(double bitrate_mbps, double rebuffer_s,
                            double previous_bitrate_mbps) const {
    return bitrate_mbps - rebuffer_penalty * rebuffer_s -
           switch_penalty * std::fabs(bitrate_mbps - previous_bitrate_mbps);
}

BufferBasedAbr::BufferBasedAbr(double reservoir_s, double cushion_s)
    : reservoir_s_(reservoir_s), cushion_s_(cushion_s) {
    if (reservoir_s_ < 0.0 || cushion_s_ <= 0.0)
        throw std::invalid_argument("BufferBasedAbr: bad reservoir/cushion");
}

std::size_t BufferBasedAbr::choose(const AbrState& state, const BitrateLadder& ladder,
                                   const SessionConfig&, const QoeParams&) const {
    if (state.buffer_s <= reservoir_s_) return 0;
    if (state.buffer_s >= reservoir_s_ + cushion_s_) return ladder.highest();
    const double t = (state.buffer_s - reservoir_s_) / cushion_s_;
    const auto level = static_cast<std::size_t>(
        t * static_cast<double>(ladder.levels() - 1) + 0.5);
    return std::min(level, ladder.highest());
}

MpcAbr::MpcAbr(std::size_t horizon) : horizon_(horizon) {
    if (horizon_ == 0) throw std::invalid_argument("MpcAbr: horizon must be > 0");
}

double MpcAbr::lookahead(double buffer_s, std::size_t previous_level,
                         double throughput_mbps, std::size_t depth,
                         const BitrateLadder& ladder, const SessionConfig& session,
                         const QoeParams& qoe) const {
    if (depth == 0) return 0.0;
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t level = 0; level < ladder.levels(); ++level) {
        const double bitrate = ladder.mbps(level);
        // FastMPC's model: download time = chunk size / predicted throughput,
        // with throughput assumed independent of the chosen bitrate.
        const double download_s =
            bitrate * session.chunk_seconds / std::max(throughput_mbps, 1e-3);
        const double rebuffer_s = std::max(0.0, download_s - buffer_s);
        double next_buffer =
            std::max(buffer_s - download_s, 0.0) + session.chunk_seconds;
        next_buffer = std::min(next_buffer, session.max_buffer_s);
        const double reward =
            qoe.chunk_qoe(bitrate, rebuffer_s, ladder.mbps(previous_level));
        const double future = lookahead(next_buffer, level, throughput_mbps,
                                        depth - 1, ladder, session, qoe);
        best = std::max(best, reward + future);
    }
    return best;
}

std::size_t MpcAbr::choose(const AbrState& state, const BitrateLadder& ladder,
                           const SessionConfig& session, const QoeParams& qoe) const {
    double best = -std::numeric_limits<double>::infinity();
    std::size_t best_level = 0;
    for (std::size_t level = 0; level < ladder.levels(); ++level) {
        const double bitrate = ladder.mbps(level);
        const double download_s =
            bitrate * session.chunk_seconds /
            std::max(state.predicted_throughput_mbps, 1e-3);
        const double rebuffer_s = std::max(0.0, download_s - state.buffer_s);
        double next_buffer =
            std::max(state.buffer_s - download_s, 0.0) + session.chunk_seconds;
        next_buffer = std::min(next_buffer, session.max_buffer_s);
        const double reward = qoe.chunk_qoe(bitrate, rebuffer_s,
                                            ladder.mbps(state.previous_level));
        const double future =
            lookahead(next_buffer, level, state.predicted_throughput_mbps,
                      horizon_ - 1, ladder, session, qoe);
        if (reward + future > best) {
            best = reward + future;
            best_level = level;
        }
    }
    return best_level;
}

} // namespace dre::video
