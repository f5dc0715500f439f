#include "netsim/topology.h"

#include <gtest/gtest.h>

namespace dre::netsim {
namespace {

// A diamond: 0 -(1ms)- 1 -(1ms)- 3, 0 -(5ms)- 2 -(5ms)- 3, plus 1 -(1ms)- 2.
Topology diamond() {
    Topology topo(4);
    topo.add_link(0, 1, 1.0, 100.0); // links 0,1
    topo.add_link(1, 3, 1.0, 100.0); // links 2,3
    topo.add_link(0, 2, 5.0, 100.0); // links 4,5
    topo.add_link(2, 3, 5.0, 100.0); // links 6,7
    topo.add_link(1, 2, 1.0, 100.0); // links 8,9
    return topo;
}

TEST(Topology, ConstructionAndValidation) {
    EXPECT_THROW(Topology(0), std::invalid_argument);
    Topology topo(2);
    EXPECT_THROW(topo.add_link(0, 0, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(topo.add_link(0, 5, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(topo.add_link(0, 1, -1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(topo.add_link(0, 1, 1.0, 0.0), std::invalid_argument);
    const LinkId id = topo.add_link(0, 1, 2.0, 10.0);
    EXPECT_EQ(topo.num_links(), 2u); // bidirectional = two directed links
    EXPECT_EQ(topo.link(id).from, 0u);
    EXPECT_EQ(topo.link(id + 1).from, 1u);
    EXPECT_THROW(topo.link(99), std::out_of_range);
}

TEST(Topology, KPathsEnumeratesLoopFreeRoutes) {
    const Topology topo = diamond();
    const auto paths = topo.k_paths(0, 3, 3);
    // 0-1-3, 0-2-3, 0-1-2-3, 0-2-1-3.
    EXPECT_EQ(paths.size(), 4u);
    for (const auto& p : paths) {
        EXPECT_LE(p.size(), 3u);
        EXPECT_EQ(topo.link(p.back()).to, 3u);
    }
    // Hop limit prunes the longer routes.
    EXPECT_EQ(topo.k_paths(0, 3, 2).size(), 2u);
}

TEST(MaxMinFair, SingleBottleneckSharedEqually) {
    Topology topo(2);
    const LinkId l = topo.add_link(0, 1, 1.0, 90.0);
    const std::vector<Flow> flows(3, Flow{{l}, 1e9});
    const auto rates = max_min_fair_rates(topo, flows);
    for (double r : rates) EXPECT_NEAR(r, 30.0, 1e-9);
}

TEST(MaxMinFair, DemandCapsFreeCapacityForOthers) {
    Topology topo(2);
    const LinkId l = topo.add_link(0, 1, 1.0, 90.0);
    std::vector<Flow> flows{{{l}, 10.0}, {{l}, 1e9}, {{l}, 1e9}};
    const auto rates = max_min_fair_rates(topo, flows);
    EXPECT_NEAR(rates[0], 10.0, 1e-9);
    EXPECT_NEAR(rates[1], 40.0, 1e-9);
    EXPECT_NEAR(rates[2], 40.0, 1e-9);
}

TEST(MaxMinFair, MultiBottleneckWaterFilling) {
    // Classic example: flow A on link1 (cap 10), flow B on link1+link2
    // (caps 10, 4), flow C on link2. B is bottlenecked at link2 with C:
    // B = C = 2; A then gets the rest of link1: 8.
    Topology topo(3);
    const LinkId l1 = topo.add_link(0, 1, 1.0, 10.0);
    const LinkId l2 = topo.add_link(1, 2, 1.0, 4.0);
    std::vector<Flow> flows{{{l1}, 1e9}, {{l1, l2}, 1e9}, {{l2}, 1e9}};
    const auto rates = max_min_fair_rates(topo, flows);
    EXPECT_NEAR(rates[1], 2.0, 1e-9);
    EXPECT_NEAR(rates[2], 2.0, 1e-9);
    EXPECT_NEAR(rates[0], 8.0, 1e-9);
}

TEST(MaxMinFair, CapacityConservedOnEveryLink) {
    Topology topo(4);
    const LinkId a = topo.add_link(0, 1, 1.0, 50.0);
    const LinkId b = topo.add_link(1, 2, 1.0, 30.0);
    const LinkId c = topo.add_link(2, 3, 1.0, 20.0);
    std::vector<Flow> flows{
        {{a}, 1e9}, {{a, b}, 1e9}, {{b, c}, 1e9}, {{c}, 15.0}, {{a, b, c}, 1e9}};
    const auto rates = max_min_fair_rates(topo, flows);
    // Verify no link is oversubscribed.
    std::vector<double> load(topo.num_links(), 0.0);
    for (std::size_t i = 0; i < flows.size(); ++i)
        for (const LinkId id : flows[i].path) load[id] += rates[i];
    for (std::size_t l = 0; l < topo.num_links(); ++l)
        EXPECT_LE(load[l], topo.link(l).capacity_mbps + 1e-9);
    // Every flow gets something.
    for (double r : rates) EXPECT_GT(r, 0.0);
}

TEST(MaxMinFair, Validation) {
    Topology topo(2);
    topo.add_link(0, 1, 1.0, 10.0);
    EXPECT_THROW(max_min_fair_rates(topo, {{{99}, 1.0}}), std::out_of_range);
    EXPECT_THROW(max_min_fair_rates(topo, {{{0}, 0.0}}), std::invalid_argument);
    EXPECT_TRUE(max_min_fair_rates(topo, {}).empty());
}

} // namespace
} // namespace dre::netsim
