// Available-bandwidth processes for the ABR simulator.
#ifndef DRE_VIDEO_BANDWIDTH_H
#define DRE_VIDEO_BANDWIDTH_H

#include "stats/rng.h"
#include "video/types.h"

namespace dre::video {

class BandwidthProcess {
public:
    virtual ~BandwidthProcess() = default;

    // True available bandwidth (Mbps) while chunk `k` downloads.
    virtual double bandwidth_mbps(std::size_t chunk_index, stats::Rng& rng) const = 0;

protected:
    BandwidthProcess() = default;
    BandwidthProcess(const BandwidthProcess&) = default;
    BandwidthProcess& operator=(const BandwidthProcess&) = default;
};

// Constant mean with lognormal per-chunk jitter (Fig. 7b: "the available
// bandwidth is a constant b").
class ConstantBandwidth final : public BandwidthProcess {
public:
    explicit ConstantBandwidth(double mean_mbps, double jitter_sigma = 0.08);

    double bandwidth_mbps(std::size_t, stats::Rng& rng) const override;

private:
    double mean_mbps_;
    double jitter_sigma_;
};

} // namespace dre::video

#endif // DRE_VIDEO_BANDWIDTH_H
