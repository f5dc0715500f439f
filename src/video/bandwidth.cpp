#include "video/bandwidth.h"

#include <stdexcept>

namespace dre::video {

ConstantBandwidth::ConstantBandwidth(double mean_mbps, double jitter_sigma)
    : mean_mbps_(mean_mbps), jitter_sigma_(jitter_sigma) {
    if (mean_mbps_ <= 0.0)
        throw std::invalid_argument("ConstantBandwidth: mean must be > 0");
    if (jitter_sigma_ < 0.0)
        throw std::invalid_argument("ConstantBandwidth: negative jitter");
}

double ConstantBandwidth::bandwidth_mbps(std::size_t, stats::Rng& rng) const {
    if (jitter_sigma_ == 0.0) return mean_mbps_;
    return mean_mbps_ * rng.lognormal(0.0, jitter_sigma_);
}

} // namespace dre::video
