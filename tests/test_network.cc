#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/network.hh"

using namespace affalloc;
using noc::Network;
using sim::MachineConfig;
using sim::Stats;

namespace
{

struct NetFixture
{
    MachineConfig cfg;
    Stats stats;
    Network net{cfg, stats};
};

} // namespace

TEST(Network, LocalMessageCostsNoHops)
{
    NetFixture f;
    f.net.send(5, 5, 64, TrafficClass::data);
    EXPECT_EQ(f.stats.messages[int(TrafficClass::data)], 1u);
    EXPECT_EQ(f.stats.hops[int(TrafficClass::data)], 0u);
    EXPECT_EQ(f.stats.flitHops[int(TrafficClass::data)], 0u);
    EXPECT_EQ(f.net.maxLinkFlits(), 0u);
}

TEST(Network, HopAndFlitAccounting)
{
    NetFixture f;
    // 0 -> 3 is 3 hops; 64 bytes = 2 flits of 32 B.
    f.net.send(0, 3, 64, TrafficClass::data);
    EXPECT_EQ(f.stats.hops[int(TrafficClass::data)], 3u);
    EXPECT_EQ(f.stats.flitHops[int(TrafficClass::data)], 6u);
    EXPECT_EQ(f.net.maxLinkFlits(), 2u);
    // 6 route flit-links + 2 flits each at the endpoint ports.
    EXPECT_EQ(f.net.totalLinkFlits(), 10u);
}

TEST(Network, LatencyIncludesSerialization)
{
    NetFixture f;
    const Cycles lat1 = f.net.send(0, 1, 16, TrafficClass::control);
    EXPECT_EQ(lat1, Cycles(f.cfg.hopLatency)); // 1 flit, 1 hop
    const Cycles lat2 = f.net.send(0, 1, 96, TrafficClass::data);
    EXPECT_EQ(lat2, Cycles(f.cfg.hopLatency) + 2); // 3 flits
}

TEST(Network, ClassesTrackedSeparately)
{
    NetFixture f;
    f.net.send(0, 1, 16, TrafficClass::control);
    f.net.send(0, 1, 64, TrafficClass::offload);
    EXPECT_EQ(f.stats.messages[int(TrafficClass::control)], 1u);
    EXPECT_EQ(f.stats.messages[int(TrafficClass::offload)], 1u);
    EXPECT_EQ(f.stats.messages[int(TrafficClass::data)], 0u);
}

TEST(Network, EpochResetClearsLinkLoadNotStats)
{
    NetFixture f;
    f.net.send(0, 7, 64, TrafficClass::data);
    EXPECT_GT(f.net.maxLinkFlits(), 0u);
    f.net.resetEpoch();
    EXPECT_EQ(f.net.maxLinkFlits(), 0u);
    EXPECT_EQ(f.stats.hops[int(TrafficClass::data)], 7u);
    // Lifetime link flits survive the reset.
    std::uint64_t total = 0;
    for (auto v : f.net.lifetimeLinkFlits())
        total += v;
    EXPECT_EQ(total, 18u); // 2 flits x (7 links + 2 endpoint ports)
}

TEST(Network, CongestionConcentratesOnSharedLinks)
{
    NetFixture f;
    // Many messages crossing the same east link 0->1.
    for (int i = 0; i < 10; ++i)
        f.net.send(0, 1, 32, TrafficClass::data);
    EXPECT_EQ(f.net.maxLinkFlits(), 10u);
}

TEST(Network, BisectionTraffic)
{
    NetFixture f;
    // Every tile in the left half sends to its mirror on the right:
    // column-crossing links should carry multiple messages.
    const auto &mesh = f.net.mesh();
    for (std::uint32_t y = 0; y < 8; ++y)
        f.net.send(mesh.tileAt(3, y), mesh.tileAt(4, y), 32,
                   TrafficClass::data);
    EXPECT_EQ(f.net.maxLinkFlits(), 1u); // distinct rows: no overlap

    f.net.resetEpoch();
    for (std::uint32_t x = 0; x < 4; ++x)
        f.net.send(mesh.tileAt(x, 0), mesh.tileAt(7, 0), 32,
                   TrafficClass::data);
    // Link (3,0)->(4,0) carries all four messages.
    EXPECT_EQ(f.net.maxLinkFlits(), 4u);
}

TEST(Network, FlitsForRoundsUp)
{
    NetFixture f;
    EXPECT_EQ(f.net.flitsFor(0), 1u);
    EXPECT_EQ(f.net.flitsFor(1), 1u);
    EXPECT_EQ(f.net.flitsFor(32), 1u);
    EXPECT_EQ(f.net.flitsFor(33), 2u);
    EXPECT_EQ(f.net.flitsFor(64), 2u);
}

/**
 * Every (src, dst) send charges exactly the links Mesh::route() walks,
 * on shapes from one tile up to the 256-tile limit; one shape runs with
 * degraded links, whose multiplier every charge must carry.
 */
TEST(Network, RouteTableMatchesMeshRouteOnEveryPair)
{
    struct Shape
    {
        std::uint32_t x, y;
        bool degraded;
    };
    for (const Shape sh : {Shape{1, 1, false}, Shape{2, 8, false},
                           Shape{8, 8, false}, Shape{8, 8, true},
                           Shape{16, 4, false}, Shape{16, 16, false}}) {
        SCOPED_TRACE(std::to_string(sh.x) + "x" + std::to_string(sh.y) +
                     (sh.degraded ? " degraded" : ""));
        MachineConfig cfg;
        cfg.meshX = sh.x;
        cfg.meshY = sh.y;
        Stats stats;
        Network net(cfg, stats);
        const noc::Mesh &mesh = net.mesh();
        sim::FaultPlan plan(sim::FaultConfig{}, sh.x, sh.y);
        if (sh.degraded) {
            for (noc::LinkId l : {0u, 4u * 9 + 0, 4u * 27 + 3, 4u * 62 + 2})
                plan.degradeLink(l, 3 + l % 4);
            net.setFaultPlan(&plan);
        }
        const std::uint32_t bytes = 64;
        const std::uint32_t flits = net.flitsFor(bytes);
        std::vector<std::uint64_t> expect(mesh.numLinks(), 0);
        std::vector<noc::LinkId> route;
        for (TileId src = 0; src < mesh.numTiles(); ++src) {
            for (TileId dst = 0; dst < mesh.numTiles(); ++dst) {
                route.clear();
                mesh.route(src, dst, route);
                std::uint64_t routeFlits = 0;
                for (noc::LinkId l : route) {
                    const std::uint64_t c =
                        std::uint64_t(flits) * plan.linkFlitMultiplier(l);
                    expect[l] += c;
                    routeFlits += c;
                }
                net.resetEpoch();
                net.send(src, dst, bytes, TrafficClass::data);
                // This epoch holds the route plus the two endpoint
                // ports; every route link carries its running total.
                const std::uint64_t ports = route.empty() ? 0 : 2 * flits;
                ASSERT_EQ(net.totalLinkFlits(), routeFlits + ports)
                    << src << " -> " << dst;
                for (noc::LinkId l : route)
                    ASSERT_EQ(net.lifetimeLinkFlits()[l], expect[l])
                        << src << " -> " << dst << " link " << l;
            }
        }
        for (noc::LinkId l = 0; l < mesh.numLinks(); ++l)
            EXPECT_EQ(net.lifetimeLinkFlits()[l], expect[l]) << "link " << l;
        const std::uint64_t pairs =
            std::uint64_t(mesh.numTiles()) * mesh.numTiles();
        EXPECT_EQ(stats.messages[int(TrafficClass::data)], pairs);
    }
}
