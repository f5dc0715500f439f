#include "ab/test.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dre::ab {

MixtureSprt::MixtureSprt(double tau, double alpha, std::size_t burn_in)
    : tau_(tau), alpha_(alpha), burn_in_(std::max<std::size_t>(burn_in, 2)) {
    if (!(tau > 0.0)) throw std::invalid_argument("mixture scale tau must be > 0");
    if (!(alpha > 0.0 && alpha < 1.0))
        throw std::invalid_argument("alpha must lie in (0, 1)");
}

double MixtureSprt::likelihood_ratio() const {
    if (n_ < burn_in_) return 1.0; // variance estimate not trustworthy yet
    const double n = static_cast<double>(n_);
    // Sample variance of the pairwise differences, floored so a freakishly
    // quiet early stream cannot manufacture an infinite likelihood ratio.
    const double var = std::max(m2_ / (n - 1.0), 1e-12);
    const double denom = var + n * tau_ * tau_;
    const double log_lr = 0.5 * std::log(var / denom) +
                          n * n * tau_ * tau_ * mean_ * mean_ / (2.0 * var * denom);
    return std::exp(log_lr);
}

bool MixtureSprt::add(double reward_a, double reward_b) {
    const double diff = reward_a - reward_b;
    ++n_;
    const double delta = diff - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (diff - mean_);

    p_ = std::min(p_, 1.0 / std::max(likelihood_ratio(), 1.0));
    if (!decided_ && p_ <= alpha_) decided_ = true;
    return decided_;
}

} // namespace dre::ab
