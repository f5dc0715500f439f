#include "trace/validate.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace dre {

const char* reason_code(TupleDefect defect) noexcept {
    switch (defect) {
        case TupleDefect::kNone: return "ok";
        case TupleDefect::kNonFiniteReward: return "non-finite-reward";
        case TupleDefect::kNonFiniteContext: return "non-finite-context";
        case TupleDefect::kInvalidPropensity: return "invalid-propensity";
        case TupleDefect::kDecisionOutOfRange: return "decision-out-of-range";
    }
    return "unknown";
}

TupleDefect classify_tuple(const LoggedTuple& tuple,
                           std::size_t num_decisions) noexcept {
    if (!std::isfinite(tuple.reward)) return TupleDefect::kNonFiniteReward;
    for (const double x : tuple.context.numeric)
        if (!std::isfinite(x)) return TupleDefect::kNonFiniteContext;
    if (!(tuple.propensity > 0.0) || tuple.propensity > 1.0 ||
        !std::isfinite(tuple.propensity))
        return TupleDefect::kInvalidPropensity;
    if (tuple.decision < 0 ||
        (num_decisions > 0 &&
         static_cast<std::size_t>(tuple.decision) >= num_decisions))
        return TupleDefect::kDecisionOutOfRange;
    return TupleDefect::kNone;
}

std::map<std::string, std::uint64_t> count_defects(const Trace& trace,
                                                   std::size_t num_decisions) {
    std::map<std::string, std::uint64_t> counts;
    for (const LoggedTuple& t : trace) {
        const TupleDefect defect = classify_tuple(t, num_decisions);
        if (defect != TupleDefect::kNone) ++counts[reason_code(defect)];
    }
    return counts;
}

std::map<std::string, std::uint64_t> remove_defective_tuples(
    Trace& trace, std::size_t num_decisions) {
    std::map<std::string, std::uint64_t> counts;
    std::vector<LoggedTuple> kept;
    kept.reserve(trace.size());
    for (LoggedTuple& t : trace) {
        const TupleDefect defect = classify_tuple(t, num_decisions);
        if (defect == TupleDefect::kNone)
            kept.push_back(std::move(t));
        else
            ++counts[reason_code(defect)];
    }
    trace = Trace(std::move(kept));
    return counts;
}

void require_evaluable(const Trace& trace) {
    if (trace.empty()) throw std::runtime_error("trace is empty");
    std::string census;
    for (const auto& [code, count] :
         count_defects(trace, trace.num_decisions())) {
        if (!census.empty()) census += ", ";
        census += code + ": " + std::to_string(count);
    }
    if (!census.empty())
        throw std::runtime_error(
            "trace has defective tuples (" + census +
            "); use --streaming --on-error quarantine to skip them");
}

} // namespace dre
