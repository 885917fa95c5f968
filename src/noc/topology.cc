#include "noc/topology.hh"

#include "sim/log.hh"

namespace affalloc::noc
{

Mesh::Mesh(std::uint32_t x_dim, std::uint32_t y_dim)
    : xDim_(x_dim), yDim_(y_dim)
{
    if (x_dim == 0 || y_dim == 0)
        SIM_FATAL("noc", "mesh dimensions must be nonzero (%ux%u)", x_dim, y_dim);
    if (std::uint64_t(x_dim) * y_dim > maxMeshTiles)
        SIM_FATAL("noc", "mesh %ux%u exceeds the %u-tile limit", x_dim, y_dim,
              maxMeshTiles);
    const std::uint32_t nt = numTiles();
    dist_.resize(std::size_t(nt) * nt);
    for (TileId a = 0; a < nt; ++a)
        for (TileId b = 0; b < nt; ++b)
            dist_[std::size_t(a) * nt + b] =
                static_cast<std::uint16_t>(computeDistance(a, b));
}

void
Mesh::route(TileId src, TileId dst, std::vector<LinkId> &out) const
{
    if (src >= numTiles() || dst >= numTiles())
        SIM_PANIC("noc", "route endpoints out of range (%u -> %u)", src, dst);
    std::uint32_t x = xOf(src);
    std::uint32_t y = yOf(src);
    const std::uint32_t tx = xOf(dst);
    const std::uint32_t ty = yOf(dst);
    // X-Y dimension-ordered routing: fully resolve X, then Y.
    while (x != tx) {
        const Direction dir = x < tx ? Direction::east : Direction::west;
        out.push_back(linkOf(tileAt(x, y), dir));
        x = x < tx ? x + 1 : x - 1;
    }
    while (y != ty) {
        const Direction dir = y < ty ? Direction::south : Direction::north;
        out.push_back(linkOf(tileAt(x, y), dir));
        y = y < ty ? y + 1 : y - 1;
    }
}

std::vector<TileId>
Mesh::cornerTiles() const
{
    return {tileAt(0, 0), tileAt(xDim_ - 1, 0), tileAt(0, yDim_ - 1),
            tileAt(xDim_ - 1, yDim_ - 1)};
}

double
Mesh::averageDistanceFrom(TileId tile) const
{
    double sum = 0.0;
    for (TileId t = 0; t < numTiles(); ++t)
        sum += distance(tile, t);
    return sum / numTiles();
}

} // namespace affalloc::noc
