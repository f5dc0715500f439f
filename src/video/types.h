// Shared types for the adaptive-bitrate (ABR) video substrate.
//
// The paper's Fig. 2 / Fig. 7b scenario: a session downloads chunks at
// bitrates chosen from a ladder; the *observed* throughput of a chunk is
// b * p(r) where b is the true available bandwidth and p(r) <= 1 increases
// with the chosen bitrate r (small chunks never let TCP reach steady state,
// citing Huang et al. [12]). Trace-driven evaluators that assume observed
// throughput == available bandwidth are biased; DR corrects them.
#ifndef DRE_VIDEO_TYPES_H
#define DRE_VIDEO_TYPES_H

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace dre::video {

// Bitrate ladder in Mbps, ascending.
class BitrateLadder {
public:
    explicit BitrateLadder(std::vector<double> mbps);

    std::size_t levels() const noexcept { return mbps_.size(); }
    double mbps(std::size_t level) const;
    std::size_t highest() const noexcept { return mbps_.size() - 1; }

    // A conventional 5-level ladder (Fig. 7b: "five bitrate levels").
    static BitrateLadder standard5();

private:
    std::vector<double> mbps_;
};

// TCP efficiency p(r): fraction of available bandwidth a chunk at ladder
// level r actually achieves. p is in (0, 1], monotone increasing in r:
//   p(r) = floor + (1 - floor) * r_mbps / (r_mbps + half_rate).
struct TcpEfficiency {
    double floor = 0.35;     // efficiency of the tiniest chunk
    double half_rate = 1.5;  // Mbps at which the ramp reaches halfway

    double operator()(double bitrate_mbps) const;
};

// Per-chunk QoE (FastMPC-style): bitrate utility − rebuffer penalty −
// smoothness penalty.
struct QoeParams {
    double rebuffer_penalty = 4.3; // per second of stall
    double switch_penalty = 1.0;   // per Mbps of bitrate change

    double chunk_qoe(double bitrate_mbps, double rebuffer_s,
                     double previous_bitrate_mbps) const;
};

struct SessionConfig {
    std::size_t chunks = 100;    // Fig. 7b: "a video session with 100 chunks"
    double chunk_seconds = 4.0;  // playback seconds per chunk
    double max_buffer_s = 20.0;  // client buffer cap
    double start_buffer_s = 8.0; // pre-rolled buffer at session start
};

// Observable ABR state before choosing a chunk's bitrate.
struct AbrState {
    double buffer_s = 0.0;
    double predicted_throughput_mbps = 0.0; // harmonic mean of recent chunks
    std::size_t previous_level = 0;
    std::size_t chunk_index = 0;
};

// What happened for one chunk.
struct ChunkRecord {
    AbrState state;
    std::size_t level = 0;
    double logging_propensity = 1.0;
    double observed_throughput_mbps = 0.0;
    double download_s = 0.0;
    double rebuffer_s = 0.0;
    double qoe = 0.0;
};

using SessionRecord = std::vector<ChunkRecord>;

} // namespace dre::video

#endif // DRE_VIDEO_TYPES_H
