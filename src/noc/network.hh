/**
 * @file
 * Flit-accurate accounting model of the mesh interconnect. Messages
 * charge flits to every directed link on their X-Y route; per-epoch
 * link occupancy drives the contention term of the timing model and
 * per-class hop counters drive the paper's traffic figures.
 */

#ifndef AFFALLOC_NOC_NETWORK_HH
#define AFFALLOC_NOC_NETWORK_HH

#include <cstdint>
#include <vector>

#include "noc/topology.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/simcheck.hh"
#include "sim/stats.hh"

namespace affalloc::noc
{

/**
 * The interconnect model. Owns per-link epoch occupancy counters and
 * writes traffic statistics into a shared Stats block. Every message
 * is charged from a route table precomputed from Mesh::route();
 * Network.RouteTableMatchesMeshRouteOnEveryPair holds the two equal
 * on every tile pair of meshes up to the maxMeshTiles limit.
 */
class Network
{
  public:
    /** Build the network for a machine config, writing into @p stats. */
    Network(const sim::MachineConfig &cfg, sim::Stats &stats);

    /** The topology in use. */
    const Mesh &mesh() const { return mesh_; }

    /**
     * Attach a fault plan; degraded links occupy proportionally more
     * flit-cycles per message. Pass nullptr to detach.
     */
    void setFaultPlan(const sim::FaultPlan *plan) { faults_ = plan; }

    /**
     * Inject one message of @p bytes payload from @p src to @p dst.
     * Charges flits to every link of the X-Y route and updates the
     * per-class counters. Local (src == dst) messages cost no hops.
     *
     * @return the unloaded latency of this message in cycles
     *         (hops x hop latency + serialization).
     */
    Cycles send(TileId src, TileId dst, std::uint32_t bytes,
                TrafficClass tc);

    /** Flits queued on the busiest link during the current epoch. */
    std::uint64_t maxLinkFlits() const { return epochMaxLinkFlits_; }

    /** Total flits injected during the current epoch. */
    std::uint64_t epochFlits() const { return epochFlits_; }

    /** Sum of per-link epoch occupancy (for utilization reporting). */
    std::uint64_t totalLinkFlits() const;

    /** Clear per-epoch link occupancy (call at epoch boundaries). */
    void resetEpoch();

    /** Number of flits a payload of @p bytes occupies. */
    std::uint32_t
    flitsFor(std::uint32_t bytes) const
    {
        const std::uint32_t fb = cfg_.flitBytes();
        return bytes == 0 ? 1 : (bytes + fb - 1) / fb;
    }

    /** Accumulated per-link flits over the whole run (utilization). */
    const std::vector<std::uint64_t> &lifetimeLinkFlits() const
    {
        return lifetimeLinkFlits_;
    }

    /**
     * SimCheck audit: flit conservation for the current epoch. The
     * route-link occupancy must equal what chargeLink() handed out
     * (no lost or duplicated flits), and every flit injected at a
     * source port must have been ejected at a destination port.
     */
    void auditConservation(simcheck::CheckContext &ctx) const;

    /**
     * Deliberately corrupt one per-epoch link counter (simcheck tests
     * use this to model a dropped/duplicated flit). @p index addresses
     * epochLinkFlits_, i.e. [0, numLinks) are route links.
     */
    void corruptLinkFlitsForTest(std::uint32_t index, std::int64_t delta);

  private:
    /** Charge @p flits to every link of the (src, dst) route. */
    void chargeRoute(TileId src, TileId dst, std::uint32_t flits);
    /** Charge one link, applying any degraded-link multiplier. */
    void chargeLink(LinkId link, std::uint32_t flits);

    /** Keep the running epoch max current for one charged entry. */
    void
    noteEpochFlits(std::size_t index)
    {
        if (epochLinkFlits_[index] > epochMaxLinkFlits_)
            epochMaxLinkFlits_ = epochLinkFlits_[index];
    }

    /** Index of @p tile's injection (local in) port counter. */
    std::uint32_t injectPort(TileId tile) const;
    /** Index of @p tile's ejection (local out) port counter. */
    std::uint32_t ejectPort(TileId tile) const;

    sim::MachineConfig cfg_;
    sim::Stats &stats_;
    Mesh mesh_;
    /** Optional fault plan (not owned); degraded-link multipliers. */
    const sim::FaultPlan *faults_ = nullptr;
    /** Per-directed-link (and per local port) flits this epoch. The
     *  last 2*numTiles entries are the tile injection/ejection ports:
     *  the router-local interfaces every message crosses at its two
     *  endpoints, which bound how fast one tile can source or sink
     *  traffic. */
    std::vector<std::uint64_t> epochLinkFlits_;
    /** Per-directed-link flits over the whole run. */
    std::vector<std::uint64_t> lifetimeLinkFlits_;
    std::uint64_t epochFlits_ = 0;
    /**
     * Running maximum over epochLinkFlits_, maintained at charge time
     * so endEpoch() reads the bottleneck without scanning ~350
     * counters per epoch. Occupancy only grows within an epoch, so
     * the running max equals the scan.
     */
    std::uint64_t epochMaxLinkFlits_ = 0;
    /** Shadow sum of everything chargeLink() handed to route links
     *  this epoch; auditConservation() checks the links agree. */
    std::uint64_t epochRouteFlitsShadow_ = 0;
    /**
     * Precomputed X-Y routes, built once from Mesh::route(): the links
     * of the (src, dst) route are
     * routeLinks_[routeOffset_[src*numTiles+dst] ..
     *             routeOffset_[src*numTiles+dst + 1]).
     * Meshes are capped at maxMeshTiles, so the table is at most
     * 256^2 routes (~3 MB at 16x16).
     */
    std::vector<std::uint32_t> routeOffset_;
    std::vector<LinkId> routeLinks_;
};

} // namespace affalloc::noc

#endif // AFFALLOC_NOC_NETWORK_HH
