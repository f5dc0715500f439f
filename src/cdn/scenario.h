// The CFA scenario (paper §2.2.2, Fig. 5, Fig. 7c): choosing a CDN and
// bitrate per video client from featurized client contexts.
//
// CFA [15] evaluates a new client→(CDN, bitrate) assignment "by using only
// the data of clients who use the same CDNs/bitrates in the old and new
// assignments" — an exact-matching estimator that is unbiased under random
// logging but collapses when matches are rare. The paper's fix: DR with a
// k-NN reward model as DM.
#ifndef DRE_CDN_SCENARIO_H
#define DRE_CDN_SCENARIO_H

#include <memory>

#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::cdn {

struct CdnWorldConfig {
    std::size_t num_cdns = 3;
    std::size_t num_bitrates = 4;
    std::size_t num_asns = 8;
    std::size_t num_cities = 5;
    std::size_t num_device_types = 3;
    // Number of extra irrelevant numeric features (for the dimensionality
    // ablation E12; 0 in the base scenario).
    std::size_t noise_features = 0;
    double noise_sigma = 0.6; // quality-score noise
    std::uint64_t seed = 7;   // world parameters (affinities)
};

// Decisions are (cdn, bitrate) pairs, encoded cdn * num_bitrates + bitrate.
Decision encode_decision(const CdnWorldConfig& config, std::size_t cdn,
                         std::size_t bitrate);
std::size_t cdn_of(const CdnWorldConfig& config, Decision d);
std::size_t bitrate_of(const CdnWorldConfig& config, Decision d);

// Ground truth: quality = bitrate utility + CDN base + ASN×CDN affinity +
// city congestion + device cap + N(0, noise). Contexts carry categorical
// (asn, city, device) plus a numeric access-speed feature.
class VideoQualityEnv final : public core::Environment {
public:
    explicit VideoQualityEnv(CdnWorldConfig config);

    ClientContext sample_context(stats::Rng& rng) const override;
    Reward sample_reward(const ClientContext& context, Decision d,
                         stats::Rng& rng) const override;
    double expected_reward(const ClientContext& context, Decision d,
                           stats::Rng& rng, int samples) const override;
    std::size_t num_decisions() const noexcept override {
        return config_.num_cdns * config_.num_bitrates;
    }


    // The quality-maximizing decision for a context (oracle policy).
    Decision best_decision(const ClientContext& context) const;

private:
    double mean_quality(const ClientContext& context, Decision d) const;

    CdnWorldConfig config_;
    std::vector<double> cdn_base_;       // [cdn]
    std::vector<double> asn_cdn_;        // [asn * num_cdns + cdn]
    std::vector<double> city_congestion_; // [city]
    std::vector<double> device_cap_;     // [device] max useful bitrate level
};

// CFA-style matching estimator: average reward over logged tuples whose
// decision equals the new policy's (argmax) decision for that tuple's
// context. Returns the estimate and the number of matches (Fig. 5's
// coverage statistic). With zero matches the estimate falls back to the
// trace's overall mean reward (and `matches` reports 0).
struct MatchingEstimate {
    double value = 0.0;
    std::size_t matches = 0;
};

MatchingEstimate cfa_matching_estimate(const Trace& trace,
                                       const core::Policy& new_policy);

// A deterministic "smart" assignment policy derived from the environment's
// structure but imperfect (uses a coarse quality table learned from a probe
// trace). Acts as the new policy under evaluation in Fig. 7c.
std::shared_ptr<core::Policy> make_greedy_policy(const VideoQualityEnv& env,
                                                 const Trace& probe_trace);

} // namespace dre::cdn

#endif // DRE_CDN_SCENARIO_H
