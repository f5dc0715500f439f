// Server-selection environments.
//
// ServerSelectionEnv: a stateless contextual environment (reward depends on
// client context and server choice only) used as a clean baseline.
//
// CoupledAssignmentSimulator: a *stateful* sequential simulator where each
// assignment adds load to the chosen server and degrades future clients —
// the §4.1 "hidden decision-reward coupling". It produces traces whose
// rewards depend on the decision history, deliberately violating the DR
// assumptions so the coupling ablation (E11) can quantify the damage and
// the change-point remedy.
#ifndef DRE_NETSIM_ASSIGNMENT_ENV_H
#define DRE_NETSIM_ASSIGNMENT_ENV_H

#include <vector>

#include "core/environment.h"
#include "core/policy.h"
#include "netsim/server.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::netsim {

// Stateless server-selection environment. Context = (client_zone one-hot
// carried as a categorical, client quality numeric); reward = -latency/100
// with per-(zone, server) affinities.
class ServerSelectionEnv final : public core::Environment {
public:
    ServerSelectionEnv(std::size_t num_zones, std::size_t num_servers,
                       std::uint64_t seed);

    ClientContext sample_context(stats::Rng& rng) const override;
    Reward sample_reward(const ClientContext& context, Decision d,
                         stats::Rng& rng) const override;
    double expected_reward(const ClientContext& context, Decision d,
                           stats::Rng& rng, int samples) const override;
    std::size_t num_decisions() const noexcept override { return num_servers_; }


private:
    double mean_latency_ms(std::int32_t zone, Decision server) const;

    std::size_t num_zones_;
    std::size_t num_servers_;
    std::vector<double> affinity_; // [zone * num_servers + server]
};

// Sequential simulator with self-induced load. Not an Environment: rewards
// depend on simulator state, which is the point.
class CoupledAssignmentSimulator {
public:
    CoupledAssignmentSimulator(std::vector<ServerConfig> servers,
                               double load_per_client = 4.0);

    // Run `policy` over `n` sequential clients; returns the logged trace
    // (contexts carry the client's zone; rewards are -latency/100).
    Trace run(const core::Policy& policy, std::size_t n, stats::Rng& rng);

    // Average reward achieved by `policy` over `n` fresh clients (ground
    // truth including coupling), averaged over `replicates` runs.
    double true_value(const core::Policy& policy, std::size_t n, stats::Rng& rng,
                      int replicates = 16);

    // Per-client utilization snapshots of the last run() (for change-point
    // analysis of the self-induced state change).
    const std::vector<double>& utilization_history() const noexcept {
        return utilization_history_;
    }

private:
    Trace run_once(const core::Policy& policy, std::size_t n, stats::Rng& rng,
                   bool record_history);

    std::vector<ServerConfig> server_configs_;
    double load_per_client_;
    std::vector<double> utilization_history_;
};

} // namespace dre::netsim

#endif // DRE_NETSIM_ASSIGNMENT_ENV_H
