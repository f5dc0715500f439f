// Diagnostics for trace-driven evaluation: how much can we trust an
// estimate? These quantify the paper's §2.2.2/§4.1 coverage and variance
// concerns before (or alongside) producing a number.
#ifndef DRE_CORE_DIAGNOSTICS_H
#define DRE_CORE_DIAGNOSTICS_H

#include "core/estimators.h"
#include "core/policy.h"
#include "stats/bootstrap.h"
#include "trace/trace.h"

namespace dre::core {

struct OverlapDiagnostics {
    // Kish effective sample size of the importance weights:
    //   ESS = (sum w)^2 / sum w^2.  n when policies agree; ~1 when one tuple
    // dominates (the Fig. 5 "no matches" collapse).
    double effective_sample_size = 0.0;
    double effective_sample_fraction = 0.0; // ESS / n
    double max_weight = 0.0;
    double mean_weight = 0.0; // should be ~1 if propensities are correct
    double weight_cv = 0.0;   // coefficient of variation of weights
    // Fraction of tuples whose logged decision has probability 0 under the
    // new policy (completely wasted samples for IPS).
    double zero_weight_fraction = 0.0;
    std::size_t n = 0;
};

OverlapDiagnostics overlap_diagnostics(const Trace& trace, const Policy& new_policy);

// Exact-match coverage (the CFA §2.2.2 statistic): for deterministic-ish
// new policies, the number of logged tuples whose decision is the new
// policy's argmax decision for that context.
struct MatchDiagnostics {
    std::size_t matches = 0;
    double match_rate = 0.0;
};

MatchDiagnostics match_diagnostics(const Trace& trace, const Policy& new_policy);

// Distribution-free empirical-Bernstein confidence interval around the
// mean of the per-tuple contributions: with probability >= level,
//   |mean - E| <= sqrt(2 Var_n ln(3/delta) / n) + 3 R ln(3/delta) / n
// where R is the observed contribution range. Wider but assumption-free
// compared to the bootstrap; useful when weight tails make resampling
// optimistic (Maurer & Pontil 2009). The bootstrap interval over the same
// contributions is stats::chunked_bootstrap_mean_ci(result.per_tuple,
// result.value, ...).
stats::ConfidenceInterval empirical_bernstein_interval(const EstimateResult& result,
                                                       double level = 0.95);

} // namespace dre::core

#endif // DRE_CORE_DIAGNOSTICS_H
