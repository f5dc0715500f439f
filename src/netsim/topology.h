// Link-level network topology: nodes, capacitated links, shortest-path
// routing, and flow-level max-min fair bandwidth sharing.
//
// This gives the routing/TE scenarios a physically-grounded substrate: a
// path's latency is the sum of its links' propagation delays, and a flow's
// throughput is its max-min fair share across every link it crosses given
// the other flows in the network (the classic water-filling allocation).
#ifndef DRE_NETSIM_TOPOLOGY_H
#define DRE_NETSIM_TOPOLOGY_H

#include <cstddef>
#include <limits>
#include <vector>

namespace dre::netsim {

using NodeId = std::size_t;
using LinkId = std::size_t;

struct Link {
    NodeId from = 0;
    NodeId to = 0;
    double delay_ms = 1.0;
    double capacity_mbps = 100.0;
};

// A flow pinned to an explicit path (sequence of link ids).
struct Flow {
    std::vector<LinkId> path;
    double demand_mbps = std::numeric_limits<double>::infinity();
};

class Topology {
public:
    explicit Topology(std::size_t num_nodes);

    // Adds a bidirectional link (two directed links); returns the id of the
    // forward direction (reverse is id + 1).
    LinkId add_link(NodeId a, NodeId b, double delay_ms, double capacity_mbps);

    std::size_t num_nodes() const noexcept { return num_nodes_; }
    std::size_t num_links() const noexcept { return links_.size(); }
    const Link& link(LinkId id) const;

    // Total propagation delay of a path.
    double path_delay_ms(const std::vector<LinkId>& path) const;

    // All loop-free paths from src to dst up to `max_hops` links (for small
    // topologies / candidate-path enumeration in TE).
    std::vector<std::vector<LinkId>> k_paths(NodeId src, NodeId dst,
                                             std::size_t max_hops) const;

private:
    std::size_t num_nodes_;
    std::vector<Link> links_;
    std::vector<std::vector<LinkId>> outgoing_; // per node
};

// Progressive-filling max-min fair allocation: returns each flow's rate.
// Flows with finite demand are capped at their demand. Throws on invalid
// link references.
std::vector<double> max_min_fair_rates(const Topology& topology,
                                       const std::vector<Flow>& flows);

} // namespace dre::netsim

#endif // DRE_NETSIM_TOPOLOGY_H
