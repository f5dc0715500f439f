#include "core/subgroup.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dre::core {

std::vector<SubgroupResult> subgroup_analysis(const Trace& trace,
                                              const Policy& new_policy,
                                              const RewardModel& model,
                                              const GroupFn& group_fn,
                                              const SubgroupOptions& options) {
    if (!group_fn) throw std::invalid_argument("subgroup_analysis: null group_fn");
    validate_trace(trace);
    if (trace.empty()) throw std::invalid_argument("subgroup_analysis: empty trace");

    std::map<std::int64_t, Trace> groups;
    for (const auto& t : trace) groups[group_fn(t)].add(t);

    std::vector<SubgroupResult> results;
    results.reserve(groups.size());
    for (auto& [key, group_trace] : groups) {
        SubgroupResult result;
        result.group = key;
        result.tuples = group_trace.size();
        result.dr = doubly_robust(group_trace, new_policy, model);
        result.overlap = overlap_diagnostics(group_trace, new_policy);
        result.reliable =
            result.overlap.effective_sample_size >= options.min_effective_sample_size;
        results.push_back(std::move(result));
    }
    return results;
}

GroupFn group_by_categorical(std::size_t index) {
    return [index](const LoggedTuple& t) -> std::int64_t {
        if (index >= t.context.categorical.size())
            throw std::out_of_range(
                "group_by_categorical: categorical index out of range");
        return t.context.categorical[index];
    };
}

} // namespace dre::core
