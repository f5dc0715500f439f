#include "tune/offline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/estimators.h"
#include "core/parallel.h"
#include "core/qhat.h"
#include "obs/obs.h"

namespace dre::tune {

namespace {

// NaN-proof descending score order (NaN ranks last, ties by input index).
bool ranks_before(const ScoredCandidate& a, const ScoredCandidate& b) {
    const double av = std::isnan(a.dr_value)
                          ? -std::numeric_limits<double>::infinity()
                          : a.dr_value;
    const double bv = std::isnan(b.dr_value)
                          ? -std::numeric_limits<double>::infinity()
                          : b.dr_value;
    if (av != bv) return av > bv;
    return a.index < b.index;
}

} // namespace

std::string Leaderboard::to_text() const {
    char line[256];
    std::string out;
    std::snprintf(line, sizeof line,
                  "offline leaderboard: candidates=%zu train=%zu holdout=%zu "
                  "eval_model=%s replicates=%d\n",
                  ranked.size(), train_size, holdout_size,
                  core::to_string(eval_model), bootstrap_replicates);
    out += line;
    for (std::size_t r = 0; r < ranked.size(); ++r) {
        const ScoredCandidate& s = ranked[r];
        if (bootstrap_replicates > 0) {
            std::snprintf(line, sizeof line,
                          "  %3zu. [%zu] %-24s dr=%.17g ci=[%.17g, %.17g]\n",
                          r + 1, s.index, core::to_string(s.candidate).c_str(),
                          s.dr_value, s.ci.lower, s.ci.upper);
        } else {
            std::snprintf(line, sizeof line, "  %3zu. [%zu] %-24s dr=%.17g\n",
                          r + 1, s.index, core::to_string(s.candidate).c_str(),
                          s.dr_value);
        }
        out += line;
    }
    return out;
}

Leaderboard search_policies(const Trace& trace,
                            const std::vector<core::PolicySpec>& candidates,
                            const OfflineSearchOptions& options,
                            stats::Rng& rng) {
    DRE_SPAN("tune.offline_search");
    if (candidates.empty())
        throw std::invalid_argument("search_policies: no candidates");
    if (trace.size() < 2)
        throw std::invalid_argument("search_policies: trace too small");
    if (!(options.train_fraction > 0.0 && options.train_fraction < 1.0))
        throw std::invalid_argument(
            "search_policies: train_fraction outside (0,1)");
    if (options.bootstrap_replicates < 0)
        throw std::invalid_argument(
            "search_policies: negative bootstrap replicates");

    const std::size_t decisions = trace.num_decisions();

    stats::Rng split_rng = rng.split();
    const auto [train, holdout] = trace.split(options.train_fraction,
                                              split_rng);
    if (train.empty() || holdout.empty())
        throw std::invalid_argument(
            "search_policies: degenerate train/holdout split");

    // Referee and candidate models: fit on train, one fit per kind shared
    // by the referee and every candidate that names it; score on holdout —
    // the holdout rewards never touch a fit, so the DR scores are honest.
    core::ModelFits fits(train, decisions);
    const core::PredictionMatrix qhat = core::PredictionMatrix::build(
        *fits.model(options.eval_model), holdout);
    std::vector<std::shared_ptr<core::Policy>> policies;
    policies.reserve(candidates.size());
    for (const core::PolicySpec& candidate : candidates)
        policies.push_back(fits.build(candidate));

    const stats::Rng boot_base = rng.split();
    std::vector<ScoredCandidate> scored(candidates.size());
    par::parallel_for(candidates.size(), [&](std::size_t i) {
        ScoredCandidate& s = scored[i];
        s.candidate = candidates[i];
        s.index = i;
        const core::EstimateResult dr =
            core::doubly_robust(holdout, *policies[i], qhat);
        s.dr_value = dr.value;
        if (options.bootstrap_replicates > 0) {
            stats::Rng cand_rng = boot_base.split(i);
            s.ci = stats::chunked_bootstrap_mean_ci(
                dr.per_tuple, dr.value, cand_rng,
                options.bootstrap_replicates, options.ci_level);
        } else {
            s.ci.point = dr.value;
            s.ci.lower = dr.value;
            s.ci.upper = dr.value;
            s.ci.level = options.ci_level;
        }
        DRE_COUNTER_INC("tune.offline.candidates_scored");
    });

    Leaderboard board;
    board.train_size = train.size();
    board.holdout_size = holdout.size();
    board.eval_model = options.eval_model;
    board.bootstrap_replicates = options.bootstrap_replicates;
    board.ci_level = options.ci_level;
    board.ranked = std::move(scored);
    std::sort(board.ranked.begin(), board.ranked.end(), ranks_before);
    return board;
}

} // namespace dre::tune
