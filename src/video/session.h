// Chunk-level session simulator — the ground truth of the ABR world.
//
// The simulator applies the bitrate-dependent observed throughput
// thr = b * p(r) (TcpEfficiency), evolves the playback buffer, and logs
// per-chunk records. Sessions can be driven by a deterministic ABR or an
// epsilon-greedy randomized version of it (giving the logging policy the
// stochasticity DR needs, per §4.1 "Coverage and randomness").
#ifndef DRE_VIDEO_SESSION_H
#define DRE_VIDEO_SESSION_H

#include "stats/rng.h"
#include "trace/trace.h"
#include "video/abr.h"
#include "video/bandwidth.h"
#include "video/types.h"

namespace dre::video {

struct SimulatorConfig {
    SessionConfig session;
    QoeParams qoe;
    TcpEfficiency efficiency;
    double epsilon = 0.0; // logging randomization; 0 = deterministic ABR
};

class SessionSimulator {
public:
    SessionSimulator(SimulatorConfig config, BitrateLadder ladder);

    // Simulate one session under `abr`; per-chunk records include the
    // logging propensity of the taken decision under the epsilon-greedy
    // version of `abr`.
    SessionRecord simulate(const AbrAlgorithm& abr, const BandwidthProcess& bandwidth,
                           stats::Rng& rng) const;

    // Mean per-chunk QoE of `abr` run deterministically (epsilon ignored),
    // averaged over `replicates` sessions — the "real deployment" value.
    double true_mean_qoe(const AbrAlgorithm& abr, const BandwidthProcess& bandwidth,
                         stats::Rng& rng, int replicates = 32) const;

    const BitrateLadder& ladder() const noexcept { return ladder_; }

private:
    SimulatorConfig config_;
    BitrateLadder ladder_;
};

// Convert a session record to the generic logged-trace format:
// context numeric = {buffer_s, predicted_throughput, chunk_index,
// observed_throughput}, categorical = {previous_level}; decision = level;
// reward = chunk QoE.
Trace to_trace(const SessionRecord& record);

// Rebuild the AbrState encoded inside a logged context (inverse of
// to_trace's packing). Throws std::invalid_argument on foreign contexts.
AbrState state_from_context(const ClientContext& context);
double observed_throughput_from_context(const ClientContext& context);

} // namespace dre::video

#endif // DRE_VIDEO_SESSION_H
