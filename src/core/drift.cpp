#include "core/drift.h"

#include <stdexcept>

namespace dre::core {

DriftReport detect_reward_drift(const Trace& trace, const DriftOptions& options) {
    validate_trace(trace);
    if (trace.empty())
        throw std::invalid_argument("detect_reward_drift: empty trace");
    const std::vector<double> rewards = trace.rewards();
    const stats::ChangepointResult result =
        stats::pelt(rewards, options.penalty, options.min_segment_length);
    DriftReport report;
    report.changepoints = result.changepoints;
    report.segment_means = result.segment_means;
    return report;
}

} // namespace dre::core
