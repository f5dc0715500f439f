// Path-selection / traffic-engineering environment.
//
// The paper lists traffic engineering and routing among the trace-driven
// evaluation use cases (§2.1). This environment models flows choosing one
// of K candidate paths: each path has a base RTT, a loss rate, and a
// capacity; large flows suffer on low-capacity paths. Client populations
// are Zipf-skewed across source zones (realistic trace skew).
#ifndef DRE_NETSIM_ROUTING_ENV_H
#define DRE_NETSIM_ROUTING_ENV_H

#include <vector>

#include "core/environment.h"
#include "stats/rng.h"
#include "stats/zipf.h"

namespace dre::netsim {

struct PathConfig {
    double base_rtt_ms = 40.0;
    double loss_rate = 0.001;     // per-packet loss probability
    double capacity_mbps = 100.0; // flows demanding more than this suffer
};

struct RoutingWorldConfig {
    std::size_t num_zones = 6;
    double zone_zipf_exponent = 1.1; // population skew across zones
    double loss_penalty_ms = 800.0;  // latency-equivalent cost of loss
    double noise_sigma = 0.1;        // lognormal RTT jitter
    std::uint64_t seed = 23;
};

// Context: categorical = {zone}; numeric = {flow demand in Mbps}.
// Decision: path index. Reward: -(effective completion cost in ms)/100.
class RoutingEnv final : public core::Environment {
public:
    RoutingEnv(RoutingWorldConfig config, std::vector<PathConfig> paths);

    ClientContext sample_context(stats::Rng& rng) const override;
    Reward sample_reward(const ClientContext& context, Decision d,
                         stats::Rng& rng) const override;
    double expected_reward(const ClientContext& context, Decision d,
                           stats::Rng& rng, int samples) const override;
    std::size_t num_decisions() const noexcept override { return paths_.size(); }

    // Mean cost in ms for a context/path pair (the reward is -cost/100).
    double mean_cost_ms(const ClientContext& context, Decision d) const;


    // A plausible default 3-path world: short lossy peering path, long clean
    // transit path, medium path with limited capacity.
    static RoutingEnv standard3(RoutingWorldConfig config = {});

private:
    RoutingWorldConfig config_;
    std::vector<PathConfig> paths_;
    std::vector<double> zone_rtt_offset_; // per-zone additive RTT
    stats::ZipfSampler zone_sampler_;
};

} // namespace dre::netsim

#endif // DRE_NETSIM_ROUTING_ENV_H
