/**
 * @file
 * Mesh topology: tile coordinates, Manhattan distances and X-Y routes.
 * Shared by the network model, the allocator runtime (which receives
 * topology from the OS) and the stream engines.
 */

#ifndef AFFALLOC_NOC_TOPOLOGY_HH
#define AFFALLOC_NOC_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace affalloc::noc
{

/** Output port direction of a router. */
enum class Direction : std::uint8_t { east = 0, west = 1, north = 2,
                                      south = 3 };

/** Directed link identifier: source tile x 4 + direction. */
using LinkId = std::uint32_t;

/**
 * A 2D mesh of tiles. Tiles are numbered row-major: tile = y*X + x.
 * L3 banks map 1:1 onto tiles in this machine, so BankId and TileId
 * are interchangeable through this class. Meshes hold at most
 * maxMeshTiles tiles, so the all-pairs distance table (and the
 * network's route table) always fits.
 */
class Mesh
{
  public:
    /** Construct an X-by-Y mesh; fatal() above maxMeshTiles tiles. */
    Mesh(std::uint32_t x_dim, std::uint32_t y_dim);

    /** Mesh width. */
    std::uint32_t xDim() const { return xDim_; }
    /** Mesh height. */
    std::uint32_t yDim() const { return yDim_; }
    /** Number of tiles. */
    std::uint32_t numTiles() const { return xDim_ * yDim_; }
    /** Number of directed link slots (4 per tile; edge slots unused). */
    std::uint32_t numLinks() const { return numTiles() * 4; }

    /** X coordinate of a tile. */
    std::uint32_t xOf(TileId t) const { return t % xDim_; }
    /** Y coordinate of a tile. */
    std::uint32_t yOf(TileId t) const { return t / xDim_; }
    /** Tile at coordinates (x, y). */
    TileId
    tileAt(std::uint32_t x, std::uint32_t y) const
    {
        return y * xDim_ + x;
    }

    /** Manhattan hop distance between two tiles. */
    std::uint32_t
    distance(TileId a, TileId b) const
    {
        return dist_[std::size_t(a) * numTiles() + b];
    }

    /**
     * Append the directed links of the X-Y route from @p src to
     * @p dst to @p out. The number of links equals distance(src,dst).
     */
    void route(TileId src, TileId dst, std::vector<LinkId> &out) const;

    /** The directed link leaving @p tile in @p dir. */
    static LinkId
    linkOf(TileId tile, Direction dir)
    {
        return tile * 4 + static_cast<LinkId>(dir);
    }

    /** Tiles hosting the DRAM controllers (the four mesh corners). */
    std::vector<TileId> cornerTiles() const;

    /**
     * Average Manhattan distance from @p tile to every tile in the
     * mesh (used to reason about placement quality).
     */
    double averageDistanceFrom(TileId tile) const;

  private:
    /** Manhattan distance from coordinates (fills dist_). */
    std::uint32_t
    computeDistance(TileId a, TileId b) const
    {
        const auto ax = a % xDim_, ay = a / xDim_;
        const auto bx = b % xDim_, by = b / xDim_;
        return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
    }

    std::uint32_t xDim_;
    std::uint32_t yDim_;
    /**
     * Precomputed all-pairs hop distances (numTiles x numTiles,
     * row-major by source). distance() is on the hot path of both the
     * allocator's bank scoring and the network model, so the ctor
     * tabulates it.
     */
    std::vector<std::uint16_t> dist_;
};

} // namespace affalloc::noc

#endif // AFFALLOC_NOC_TOPOLOGY_HH
