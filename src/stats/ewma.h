// Sliding-window throughput predictor for the ABR session simulator.
#ifndef DRE_STATS_EWMA_H
#define DRE_STATS_EWMA_H

#include <cstddef>
#include <deque>
#include <stdexcept>

namespace dre::stats {

// Fixed-capacity sliding window exposing the harmonic mean, the canonical
// throughput predictor (used by the ABR substrate's session simulator).
class SlidingWindow {
public:
    explicit SlidingWindow(std::size_t capacity);

    void add(double x);
    std::size_t size() const noexcept { return values_.size(); }
    bool empty() const noexcept { return values_.empty(); }

    double harmonic_mean() const; // requires strictly positive samples

private:
    std::size_t capacity_;
    std::deque<double> values_;
};

} // namespace dre::stats

#endif // DRE_STATS_EWMA_H
