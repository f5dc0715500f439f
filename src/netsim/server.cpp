#include "netsim/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dre::netsim {

Server::Server(ServerConfig config) : config_(config) {
    if (config_.base_latency_ms <= 0.0)
        throw std::invalid_argument("Server: base latency must be > 0");
    if (config_.capacity <= 0.0)
        throw std::invalid_argument("Server: capacity must be > 0");
    if (config_.load_decay < 0.0 || config_.load_decay > 1.0)
        throw std::invalid_argument("Server: load_decay outside [0,1]");
}

void Server::add_load(double amount) noexcept {
    load_ = std::max(0.0, load_ + amount);
}

void Server::tick() noexcept {
    load_ *= (1.0 - config_.load_decay);
}

double Server::utilization() const noexcept {
    return load_ / config_.capacity;
}

double Server::expected_latency_ms() const noexcept {
    // M/M/1-style latency blow-up, clamped at 95% utilization so latencies
    // stay finite under overload (a saturated server is just very slow).
    const double rho = std::min(utilization(), 0.95);
    return config_.base_latency_ms / (1.0 - rho);
}

double Server::sample_latency_ms(stats::Rng& rng) const {
    // Lognormal multiplicative jitter with sigma=0.25 (median = expectation).
    return expected_latency_ms() * rng.lognormal(0.0, 0.25);
}

ServerPool::ServerPool(std::vector<ServerConfig> configs) {
    if (configs.empty()) throw std::invalid_argument("ServerPool: no servers");
    servers_.reserve(configs.size());
    for (const auto& config : configs) servers_.emplace_back(config);
}

Server& ServerPool::server(std::size_t i) {
    if (i >= servers_.size()) throw std::out_of_range("ServerPool::server");
    return servers_[i];
}

void ServerPool::tick() noexcept {
    for (Server& s : servers_) s.tick();
}

} // namespace dre::netsim
