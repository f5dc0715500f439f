// ABR algorithms.
//
//  * BufferBasedAbr — BBA (Huang et al. [13]): bitrate is a piecewise-linear
//    function of the buffer level. The paper uses it as the *old* (logging)
//    policy in Fig. 7b.
//  * MpcAbr — FastMPC (Yin et al. [42]): maximize the QoE of the next H
//    chunks by exhaustive lookahead assuming the predicted throughput holds.
//    The paper's *new* policy in Fig. 7b. Crucially, its throughput
//    predictor assumes observed throughput is bitrate-independent — the
//    misspecification DR must fix.
#ifndef DRE_VIDEO_ABR_H
#define DRE_VIDEO_ABR_H

#include <cstddef>

#include "video/types.h"

namespace dre::video {

class AbrAlgorithm {
public:
    virtual ~AbrAlgorithm() = default;

    virtual std::size_t choose(const AbrState& state, const BitrateLadder& ladder,
                               const SessionConfig& session,
                               const QoeParams& qoe) const = 0;

protected:
    AbrAlgorithm() = default;
    AbrAlgorithm(const AbrAlgorithm&) = default;
    AbrAlgorithm& operator=(const AbrAlgorithm&) = default;
};

class BufferBasedAbr final : public AbrAlgorithm {
public:
    // Reservoir/cushion in seconds of buffer: below `reservoir` pick the
    // lowest level; above `reservoir + cushion` the highest; linear ramp
    // in between.
    BufferBasedAbr(double reservoir_s = 5.0, double cushion_s = 10.0);

    std::size_t choose(const AbrState& state, const BitrateLadder& ladder,
                       const SessionConfig& session,
                       const QoeParams& qoe) const override;

private:
    double reservoir_s_;
    double cushion_s_;
};

class MpcAbr final : public AbrAlgorithm {
public:
    explicit MpcAbr(std::size_t horizon = 3);

    std::size_t choose(const AbrState& state, const BitrateLadder& ladder,
                       const SessionConfig& session,
                       const QoeParams& qoe) const override;

private:
    // Best achievable QoE over `depth` remaining lookahead steps.
    double lookahead(double buffer_s, std::size_t previous_level,
                     double throughput_mbps, std::size_t depth,
                     const BitrateLadder& ladder, const SessionConfig& session,
                     const QoeParams& qoe) const;

    std::size_t horizon_;
};

} // namespace dre::video

#endif // DRE_VIDEO_ABR_H
