#include "ab/design.h"

#include <cmath>
#include <stdexcept>

#include "stats/special.h"

namespace dre::ab {

namespace {

void validate_spec(const PowerSpec& spec) {
    if (!(spec.alpha > 0.0 && spec.alpha < 1.0))
        throw std::invalid_argument("alpha must lie in (0, 1)");
    if (!(spec.power > 0.0 && spec.power < 1.0))
        throw std::invalid_argument("power must lie in (0, 1)");
}

double z_sum(const PowerSpec& spec) {
    return stats::normal_quantile(1.0 - spec.alpha / 2.0) +
           stats::normal_quantile(spec.power);
}

} // namespace

std::size_t required_samples_per_arm(double min_detectable_delta,
                                     double reward_sigma, const PowerSpec& spec) {
    validate_spec(spec);
    if (!(min_detectable_delta > 0.0))
        throw std::invalid_argument("effect size must be positive");
    if (!(reward_sigma > 0.0))
        throw std::invalid_argument("reward sigma must be positive");
    const double z = z_sum(spec);
    const double n = 2.0 * z * z * reward_sigma * reward_sigma /
                     (min_detectable_delta * min_detectable_delta);
    return static_cast<std::size_t>(std::ceil(n));
}

} // namespace dre::ab
