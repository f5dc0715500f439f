// The VIA relay-selection scenario (paper Fig. 3).
//
// VoIP calls between AS pairs can go direct or via a relay. The old policy
// "chooses only calls between two devices behind NATs to use the relay
// path"; NAT-ed users also have different last-mile conditions. Estimating
// the relay path's quality for public-IP calls from the (all-NAT) relayed
// calls is therefore confounded: the NAT flag drives both the decision and
// the reward.
//
// The scenario exposes the hidden feature explicitly so experiments can
// compare evaluators that see it against evaluators that do not ("ideally
// we need to add in the relevant feature", §3).
#ifndef DRE_RELAY_SCENARIO_H
#define DRE_RELAY_SCENARIO_H

#include <memory>

#include "core/environment.h"
#include "core/policy.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::relay {

struct RelayWorldConfig {
    std::size_t num_as = 6;     // autonomous systems
    std::size_t num_relays = 2; // decision 0 = direct, 1..num_relays = relays
    double nat_fraction = 0.5;  // fraction of calls between NAT-ed devices
    double nat_lastmile_penalty = 0.8; // quality loss NAT-ed users suffer
    double relay_overhead = 0.15;      // relaying costs a bit of quality
    double relay_nat_rescue = 0.6;     // relays bypass most of the NAT penalty
    double noise_sigma = 0.25;
    std::uint64_t seed = 17;
};

std::size_t num_decisions(const RelayWorldConfig& config);

// Environment over *full* contexts: categorical = {src_as, dst_as, nat}.
// Reward is a MOS-like call-quality score.
class RelayEnv final : public core::Environment {
public:
    explicit RelayEnv(RelayWorldConfig config);

    ClientContext sample_context(stats::Rng& rng) const override;
    Reward sample_reward(const ClientContext& context, Decision d,
                         stats::Rng& rng) const override;
    double expected_reward(const ClientContext& context, Decision d,
                           stats::Rng& rng, int samples) const override;
    std::size_t num_decisions() const noexcept override {
        return relay::num_decisions(config_);
    }


private:
    double mean_quality(const ClientContext& context, Decision d) const;

    RelayWorldConfig config_;
    std::vector<double> path_base_;  // direct-path base quality [src*nA+dst]
    std::vector<double> relay_gain_; // per-relay detour quality delta
};

// The biased logging policy: NAT-ed calls use relay 1 + (src+dst) % R;
// public calls go direct — with epsilon-uniform exploration mixed in so
// propensities stay positive.
std::shared_ptr<core::Policy> make_nat_logging_policy(const RelayWorldConfig& config,
                                                      double epsilon);

// New policy under evaluation: route *every* call over its best relay.
std::shared_ptr<core::Policy> make_relay_all_policy(const RelayWorldConfig& config);

// Strip the NAT flag from every context (what an evaluator that never
// measured NAT-ness would see).
Trace without_nat_feature(const Trace& trace);
ClientContext strip_nat(const ClientContext& context);

// VIA-style naive estimate of a new policy's value: for every logged call,
// take the mean observed reward of logged calls with the same (src, dst)
// that used the decision the new policy picks (ignoring NAT). Falls back to
// the decision's global mean, then the trace mean.
double via_matching_estimate(const Trace& trace, const core::Policy& new_policy);

} // namespace dre::relay

#endif // DRE_RELAY_SCENARIO_H
