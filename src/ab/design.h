// A/B experiment design: how much live traffic a randomized trial costs.
//
// The paper's opening argument is that operators fall back on trace-driven
// ("data-driven") evaluation because live randomized trials are expensive —
// every sample served to the losing arm is a real user getting a worse
// experience. This module quantifies that cost with the standard two-sample
// power analysis, so the A/B-vs-offline bench can put a number on what DR
// evaluation saves.
#ifndef DRE_AB_DESIGN_H
#define DRE_AB_DESIGN_H

#include <cstddef>

namespace dre::ab {

struct PowerSpec {
    double alpha = 0.05; // two-sided type-I error
    double power = 0.80; // 1 - type-II error at the design effect
};

// Samples needed *per arm* for a two-sample z-test to detect a true mean
// difference `min_detectable_delta` when rewards have stddev `reward_sigma`:
//   n = (z_{1-alpha/2} + z_{power})^2 * 2 sigma^2 / delta^2,
// rounded up. Throws std::invalid_argument for non-positive delta/sigma or
// alpha/power outside (0, 1).
std::size_t required_samples_per_arm(double min_detectable_delta,
                                     double reward_sigma,
                                     const PowerSpec& spec = {});

} // namespace dre::ab

#endif // DRE_AB_DESIGN_H
