// Recency-weighted bandit controller for the online tuner (layer 3's
// proposal engine).
//
// The tuner's arms are candidate policies; the reward of an arm is the DR
// score its policy earned on the most recent wave it was tried on. Scores
// drift as the logging policy (and with it the data distribution) changes,
// so the controller tracks an exponentially-recency-weighted score per arm
// rather than a lifetime mean — the `RecencyWeightedBandit` shape from
// halo's tuner, adapted to policy search.
//
// Proposal rule, in order:
//   1. any arm never tried is proposed next (round-robin by index), so the
//      whole space gets at least one honest DR score;
//   2. with probability epsilon, a uniformly random arm (exploration);
//   3. otherwise the argmax of the recency-weighted scores (lowest index
//      wins ties, keeping proposals deterministic).
//
// All state is plain data (scores, counts) exposed for the tuner's
// checkpoint; randomness comes only from the Rng the caller passes, so a
// restored controller fed the same streams proposes identically.
#ifndef DRE_TUNE_CONTROLLER_H
#define DRE_TUNE_CONTROLLER_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace dre::tune {

class RecencyWeightedBandit {
public:
    struct Options {
        double epsilon = 0.2; // exploration probability, in [0, 1]
        double alpha = 0.5;   // recency weight on the newest score, in (0, 1]
    };

    // Throws std::invalid_argument for arms == 0 or parameters outside
    // their ranges.
    RecencyWeightedBandit(std::size_t arms, const Options& options);


    // Next arm to try (see the proposal rule above). Draws at most one
    // uniform from `rng`, and none while untried arms remain.
    std::size_t propose(stats::Rng& rng);

    // Feed back the DR score arm `arm` earned this wave:
    //   score_a <- score_a + alpha * (score - score_a)   (first pull: score).
    void record(std::size_t arm, double score);

    // The current best arm by recency-weighted score (lowest index on
    // ties); untried arms never win. Meaningful once >= 1 arm was tried.
    std::size_t best_arm() const noexcept;

    std::span<const double> scores() const noexcept { return scores_; }
    std::span<const std::uint64_t> counts() const noexcept { return counts_; }

    // Checkpoint restore: overwrite the learned state verbatim. Sizes must
    // match the arm count.
    void restore(std::span<const double> scores,
                 std::span<const std::uint64_t> counts);

private:
    Options options_;
    std::vector<double> scores_;
    std::vector<std::uint64_t> counts_; // pulls per arm
};

} // namespace dre::tune

#endif // DRE_TUNE_CONTROLLER_H
