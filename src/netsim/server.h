// Minimal server/load model.
//
// Each server is an M/M/1-flavoured resource: response time grows
// hyperbolically as utilization approaches capacity. Assigning a client
// adds load that decays over time — the mechanism behind the paper's
// "hidden decision-reward coupling" ("if we assign clients to a specific
// server ... the performance of future clients using that server instance
// may be degraded due to increased load", §4.1).
#ifndef DRE_NETSIM_SERVER_H
#define DRE_NETSIM_SERVER_H

#include <cstddef>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace dre::netsim {

struct ServerConfig {
    double base_latency_ms = 20.0; // service time at zero load
    double capacity = 100.0;       // requests/sec before saturation
    double load_decay = 0.05;      // fraction of load shed per tick
};

class Server {
public:
    explicit Server(ServerConfig config);

    // Add one request's worth of instantaneous load.
    void add_load(double amount = 1.0) noexcept;

    // Advance time one tick: load decays exponentially.
    void tick() noexcept;

    // Expected response time at current load: base / (1 - utilization),
    // clamped before saturation to stay finite.
    double expected_latency_ms() const noexcept;

    // Stochastic response time (lognormal jitter around the expectation).
    double sample_latency_ms(stats::Rng& rng) const;

    double load() const noexcept { return load_; }
    double utilization() const noexcept;
    const ServerConfig& config() const noexcept { return config_; }

private:
    ServerConfig config_;
    double load_ = 0.0;
};

// A small fleet with shared tick().
class ServerPool {
public:
    explicit ServerPool(std::vector<ServerConfig> configs);

    std::size_t size() const noexcept { return servers_.size(); }
    Server& server(std::size_t i);

    void tick() noexcept;

private:
    std::vector<Server> servers_;
};

} // namespace dre::netsim

#endif // DRE_NETSIM_SERVER_H
