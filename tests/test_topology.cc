#include <gtest/gtest.h>

#include "noc/topology.hh"
#include "sim/log.hh"

using namespace affalloc;
using noc::Direction;
using noc::Mesh;

TEST(Topology, CoordinatesRowMajor)
{
    Mesh m(8, 8);
    EXPECT_EQ(m.numTiles(), 64u);
    EXPECT_EQ(m.xOf(0), 0u);
    EXPECT_EQ(m.yOf(0), 0u);
    EXPECT_EQ(m.xOf(9), 1u);
    EXPECT_EQ(m.yOf(9), 1u);
    EXPECT_EQ(m.tileAt(7, 7), 63u);
}

TEST(Topology, ManhattanDistance)
{
    Mesh m(8, 8);
    EXPECT_EQ(m.distance(0, 0), 0u);
    EXPECT_EQ(m.distance(0, 7), 7u);
    EXPECT_EQ(m.distance(0, 63), 14u);
    EXPECT_EQ(m.distance(63, 0), 14u);
    EXPECT_EQ(m.distance(9, 18), 2u);
}

TEST(Topology, RouteLengthEqualsDistance)
{
    Mesh m(8, 8);
    for (TileId a : {0u, 5u, 27u, 63u}) {
        for (TileId b : {0u, 9u, 33u, 62u}) {
            std::vector<noc::LinkId> links;
            m.route(a, b, links);
            EXPECT_EQ(links.size(), m.distance(a, b));
        }
    }
}

TEST(Topology, XYRoutingGoesXFirst)
{
    Mesh m(8, 8);
    std::vector<noc::LinkId> links;
    m.route(m.tileAt(0, 0), m.tileAt(2, 2), links);
    ASSERT_EQ(links.size(), 4u);
    // First two hops must be eastward from (0,0) then (1,0).
    EXPECT_EQ(links[0], Mesh::linkOf(m.tileAt(0, 0), Direction::east));
    EXPECT_EQ(links[1], Mesh::linkOf(m.tileAt(1, 0), Direction::east));
    EXPECT_EQ(links[2], Mesh::linkOf(m.tileAt(2, 0), Direction::south));
    EXPECT_EQ(links[3], Mesh::linkOf(m.tileAt(2, 1), Direction::south));
}

TEST(Topology, SelfRouteIsEmpty)
{
    Mesh m(4, 4);
    std::vector<noc::LinkId> links;
    m.route(5, 5, links);
    EXPECT_TRUE(links.empty());
}

TEST(Topology, CornerTiles)
{
    Mesh m(8, 8);
    const auto corners = m.cornerTiles();
    ASSERT_EQ(corners.size(), 4u);
    EXPECT_EQ(corners[0], 0u);
    EXPECT_EQ(corners[1], 7u);
    EXPECT_EQ(corners[2], 56u);
    EXPECT_EQ(corners[3], 63u);
}

TEST(Topology, AverageDistanceCenterBeatsCorner)
{
    Mesh m(8, 8);
    EXPECT_LT(m.averageDistanceFrom(m.tileAt(3, 3)),
              m.averageDistanceFrom(m.tileAt(0, 0)));
}

TEST(Topology, RejectsDegenerateMesh)
{
    EXPECT_THROW(Mesh(0, 4), FatalError);
}

TEST(Topology, MeshRejectsMoreThan256Tiles)
{
    EXPECT_EQ(Mesh(16, 16).numTiles(), maxMeshTiles);
    EXPECT_EQ(Mesh(256, 1).numTiles(), maxMeshTiles);
    EXPECT_THROW(Mesh(17, 16), FatalError);
    EXPECT_THROW(Mesh(1, 257), FatalError);
    // The tile count is checked before it can wrap around.
    EXPECT_THROW(Mesh(65536, 65536), FatalError);
}

TEST(Topology, RouteRejectsOutOfRange)
{
    Mesh m(2, 2);
    std::vector<noc::LinkId> links;
    EXPECT_THROW(m.route(0, 99, links), PanicError);
}

TEST(Topology, NonSquareMesh)
{
    Mesh m(4, 2);
    EXPECT_EQ(m.numTiles(), 8u);
    EXPECT_EQ(m.distance(0, 7), 4u);
}
