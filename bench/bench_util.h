// Shared output helpers for the experiment harnesses. Each bench binary
// regenerates one paper artifact (or ablation) and prints aligned rows of
// the same statistics the paper reports (mean / min / max over runs).
#ifndef DRE_BENCHUTIL_H
#define DRE_BENCHUTIL_H

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/parallel.h"
#include "stats/hypothesis.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace dre::bench {

// Run `n_runs` independent replications of an experiment, in parallel
// (dre::par), each with its own RNG stream derived from (seed, run index).
// Results come back in run order and are bit-identical for any DRE_THREADS
// setting — the standard harness for the paper's "mean/min/max over 50
// runs" loops. `fn` is called as fn(run_index, rng) and must only touch
// shared state through const references.
template <typename Fn>
auto run_many(int n_runs, std::uint64_t seed, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, int, stats::Rng&>>> {
    using Result = std::decay_t<std::invoke_result_t<Fn&, int, stats::Rng&>>;
    std::vector<Result> results(static_cast<std::size_t>(n_runs));
    const stats::Rng base(seed);
    par::parallel_for(static_cast<std::size_t>(n_runs), [&](std::size_t run) {
        stats::Rng rng = base.split(run);
        results[run] = fn(static_cast<int>(run), rng);
    });
    return results;
}

// Pull one field out of a vector of per-run records (for print_error_row).
template <typename Record, typename Field>
std::vector<double> column(const std::vector<Record>& records,
                           Field Record::* field) {
    std::vector<double> xs;
    xs.reserve(records.size());
    for (const Record& r : records) xs.push_back(r.*field);
    return xs;
}

inline void print_header(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

// Paper Fig. 7 reports "the mean, minimum and maximum of evaluation errors
// over 50 runs" — print exactly that for a labelled error sample.
inline void print_error_row(const std::string& label,
                            std::span<const double> errors) {
    const stats::Summary s = stats::summarize(errors);
    std::printf("%-28s mean=%8.4f  min=%8.4f  max=%8.4f  (n=%zu)\n",
                label.c_str(), s.mean, s.min, s.max, s.count);
}

inline void print_value_row(const std::string& label, double value) {
    std::printf("%-28s %10.4f\n", label.c_str(), value);
}

inline void print_reduction(const std::string& better, const std::string& worse,
                            double better_mean, double worse_mean) {
    if (worse_mean <= 0.0) return;
    std::printf("--> %s error is %.0f%% lower than %s\n", better.c_str(),
                (1.0 - better_mean / worse_mean) * 100.0, worse.c_str());
}

// Rank-sum significance of "better's errors are stochastically smaller".
inline void print_significance(const std::string& better, const std::string& worse,
                               std::span<const double> better_errors,
                               std::span<const double> worse_errors) {
    const stats::RankSumResult test =
        stats::mann_whitney_u(better_errors, worse_errors);
    std::printf("    (rank-sum test %s < %s: p = %.4f)\n", better.c_str(),
                worse.c_str(), test.p_value_less);
}

} // namespace dre::bench

#endif // DRE_BENCHUTIL_H
