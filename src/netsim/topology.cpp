#include "netsim/topology.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace dre::netsim {

Topology::Topology(std::size_t num_nodes)
    : num_nodes_(num_nodes), outgoing_(num_nodes) {
    if (num_nodes_ == 0) throw std::invalid_argument("Topology: no nodes");
}

LinkId Topology::add_link(NodeId a, NodeId b, double delay_ms,
                          double capacity_mbps) {
    if (a >= num_nodes_ || b >= num_nodes_)
        throw std::invalid_argument("Topology::add_link: node out of range");
    if (a == b) throw std::invalid_argument("Topology::add_link: self-loop");
    if (delay_ms < 0.0 || capacity_mbps <= 0.0)
        throw std::invalid_argument("Topology::add_link: bad delay/capacity");
    const LinkId forward = links_.size();
    links_.push_back({a, b, delay_ms, capacity_mbps});
    outgoing_[a].push_back(forward);
    links_.push_back({b, a, delay_ms, capacity_mbps});
    outgoing_[b].push_back(forward + 1);
    return forward;
}

const Link& Topology::link(LinkId id) const {
    if (id >= links_.size()) throw std::out_of_range("Topology::link");
    return links_[id];
}

double Topology::path_delay_ms(const std::vector<LinkId>& path) const {
    double total = 0.0;
    for (const LinkId id : path) total += link(id).delay_ms;
    return total;
}

std::vector<std::vector<LinkId>> Topology::k_paths(NodeId src, NodeId dst,
                                                   std::size_t max_hops) const {
    if (src >= num_nodes_ || dst >= num_nodes_)
        throw std::invalid_argument("Topology::k_paths: node out of range");
    std::vector<std::vector<LinkId>> results;
    std::vector<LinkId> current;
    std::vector<bool> visited(num_nodes_, false);
    visited[src] = true;

    // Depth-first enumeration of loop-free paths.
    const std::function<void(NodeId)> explore = [&](NodeId node) {
        if (node == dst) {
            results.push_back(current);
            return;
        }
        if (current.size() >= max_hops) return;
        for (const LinkId id : outgoing_[node]) {
            const Link& l = links_[id];
            if (visited[l.to]) continue;
            visited[l.to] = true;
            current.push_back(id);
            explore(l.to);
            current.pop_back();
            visited[l.to] = false;
        }
    };
    explore(src);
    return results;
}

std::vector<double> max_min_fair_rates(const Topology& topology,
                                       const std::vector<Flow>& flows) {
    const std::size_t f = flows.size();
    for (const Flow& flow : flows) {
        if (flow.demand_mbps <= 0.0)
            throw std::invalid_argument("max_min_fair_rates: demand must be > 0");
        for (const LinkId id : flow.path) topology.link(id); // bounds check
    }

    std::vector<double> rates(f, 0.0);
    std::vector<bool> frozen(f, false);
    std::vector<double> residual(topology.num_links());
    for (std::size_t l = 0; l < topology.num_links(); ++l)
        residual[l] = topology.link(l).capacity_mbps;

    // Progressive filling: repeatedly find the bottleneck link, freeze its
    // flows at the fair share, and continue with the rest.
    while (true) {
        // Count active flows per link.
        std::vector<std::size_t> active(topology.num_links(), 0);
        bool any_active = false;
        for (std::size_t i = 0; i < f; ++i) {
            if (frozen[i]) continue;
            any_active = true;
            for (const LinkId id : flows[i].path) ++active[id];
        }
        if (!any_active) break;

        // The tightest constraint: min over links of residual/active, and
        // min over unfrozen flows of (demand - rate).
        double increment = std::numeric_limits<double>::infinity();
        for (std::size_t l = 0; l < topology.num_links(); ++l)
            if (active[l] > 0)
                increment = std::min(increment,
                                     residual[l] / static_cast<double>(active[l]));
        for (std::size_t i = 0; i < f; ++i)
            if (!frozen[i])
                increment = std::min(increment, flows[i].demand_mbps - rates[i]);
        if (!(increment > 0.0) || !std::isfinite(increment)) break;

        // Raise all unfrozen flows by the increment; charge the links.
        for (std::size_t i = 0; i < f; ++i) {
            if (frozen[i]) continue;
            rates[i] += increment;
            for (const LinkId id : flows[i].path) residual[id] -= increment;
        }
        // Freeze flows that hit demand or a saturated link.
        for (std::size_t i = 0; i < f; ++i) {
            if (frozen[i]) continue;
            if (rates[i] >= flows[i].demand_mbps - 1e-12) {
                frozen[i] = true;
                continue;
            }
            for (const LinkId id : flows[i].path) {
                if (residual[id] <= 1e-12) {
                    frozen[i] = true;
                    break;
                }
            }
        }
    }
    return rates;
}

} // namespace dre::netsim
