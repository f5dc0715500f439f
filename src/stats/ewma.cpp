#include "stats/ewma.h"

namespace dre::stats {

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0)
        throw std::invalid_argument("SlidingWindow: capacity must be > 0");
}

void SlidingWindow::add(double x) {
    values_.push_back(x);
    if (values_.size() > capacity_) values_.pop_front();
}

double SlidingWindow::harmonic_mean() const {
    if (values_.empty())
        throw std::logic_error("SlidingWindow::harmonic_mean: empty");
    double reciprocal_sum = 0.0;
    for (double v : values_) {
        if (v <= 0.0)
            throw std::invalid_argument(
                "SlidingWindow::harmonic_mean: non-positive sample");
        reciprocal_sum += 1.0 / v;
    }
    return static_cast<double>(values_.size()) / reciprocal_sum;
}

} // namespace dre::stats
