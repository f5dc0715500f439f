// Always-valid sequential test for live A/B experiments.
//
// MixtureSprt is a mixture sequential probability ratio test whose p-value
// is valid at *every* sample size, so the experiment can stop the moment
// significance is reached instead of burning traffic to a precomputed
// horizon — the honest version of the "peeking" every practitioner does
// anyway.
#ifndef DRE_AB_TEST_H
#define DRE_AB_TEST_H

#include <cstddef>

namespace dre::ab {

// Always-valid test of H0: E[a] = E[b] from paired observations, using the
// normal-mixture SPRT (Robbins 1970; the "always-valid p-value" of
// Johari et al. 2017). The mixing scale `tau` encodes the effect size the
// test is most sensitive to — a good default is the minimum effect you care
// about. The variance of the pairwise difference is estimated online.
class MixtureSprt {
public:
    // alpha: significance level at which decided() flips. tau > 0.
    // burn_in: pairs observed before the likelihood ratio starts counting.
    // The mSPRT guarantee assumes a known variance; we plug in the running
    // estimate, which is noisy enough at tiny n to inflate false positives
    // ~4x (measured in test_ab.cpp). A modest burn-in restores calibration.
    MixtureSprt(double tau, double alpha = 0.05, std::size_t burn_in = 25);

    // Feed one observation from each arm (one experiment "bucket").
    // Returns true once the test has crossed its decision boundary; further
    // observations are still accepted (the statistics keep updating) but
    // the decision is sticky by design — always-valid tests permit exactly
    // one rejection readout.
    bool add(double reward_a, double reward_b);

    std::size_t pairs() const noexcept { return n_; }
    double estimated_delta() const noexcept { return n_ == 0 ? 0.0 : mean_; }
    bool decided() const noexcept { return decided_; }

    // Always-valid p-value: min over observed history of 1/likelihood-ratio,
    // clamped to [0, 1]. Safe to read (and act on) at any time.
    double always_valid_p() const noexcept { return p_; }

private:
    double likelihood_ratio() const;

    double tau_;
    double alpha_;
    std::size_t burn_in_;
    std::size_t n_ = 0;
    double mean_ = 0.0; // running mean of pairwise differences
    double m2_ = 0.0;   // running sum of squared deviations (Welford)
    double p_ = 1.0;    // running minimum of 1/LR
    bool decided_ = false;
};

} // namespace dre::ab

#endif // DRE_AB_TEST_H
