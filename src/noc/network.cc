#include "noc/network.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"

namespace affalloc::noc
{

Network::Network(const sim::MachineConfig &cfg, sim::Stats &stats)
    : cfg_(cfg), stats_(stats), mesh_(cfg.meshX, cfg.meshY),
      epochLinkFlits_(mesh_.numLinks() + 2 * mesh_.numTiles(), 0),
      lifetimeLinkFlits_(mesh_.numLinks() + 2 * mesh_.numTiles(), 0)
{
    const std::uint32_t nt = mesh_.numTiles();
    routeOffset_.resize(std::size_t(nt) * nt + 1);
    std::uint64_t total_links = 0;
    for (TileId src = 0; src < nt; ++src)
        for (TileId dst = 0; dst < nt; ++dst)
            total_links += mesh_.distance(src, dst);
    routeLinks_.reserve(total_links);
    for (TileId src = 0; src < nt; ++src) {
        for (TileId dst = 0; dst < nt; ++dst) {
            routeOffset_[std::size_t(src) * nt + dst] =
                static_cast<std::uint32_t>(routeLinks_.size());
            mesh_.route(src, dst, routeLinks_);
        }
    }
    routeOffset_.back() = static_cast<std::uint32_t>(routeLinks_.size());
}

std::uint32_t
Network::injectPort(TileId tile) const
{
    return mesh_.numLinks() + 2 * tile;
}

std::uint32_t
Network::ejectPort(TileId tile) const
{
    return mesh_.numLinks() + 2 * tile + 1;
}

Cycles
Network::send(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc)
{
    const int c = static_cast<int>(tc);
    const std::uint32_t hop_count = mesh_.distance(src, dst);
    const std::uint32_t flits = flitsFor(bytes);

    stats_.messages[c] += 1;
    stats_.hops[c] += hop_count;
    stats_.flitHops[c] += std::uint64_t(flits) * hop_count;

    if (hop_count != 0) {
        chargeRoute(src, dst, flits);
        // Endpoint local ports: one tile can inject/eject at most one
        // flit per cycle, which bounds hot endpoints (e.g. a core
        // sinking every response, or a contended tail-pointer bank).
        epochLinkFlits_[injectPort(src)] += flits;
        lifetimeLinkFlits_[injectPort(src)] += flits;
        noteEpochFlits(injectPort(src));
        epochLinkFlits_[ejectPort(dst)] += flits;
        lifetimeLinkFlits_[ejectPort(dst)] += flits;
        noteEpochFlits(ejectPort(dst));
        epochFlits_ += flits;
    }
    // Unloaded latency: route traversal plus serialization of the
    // remaining flits behind the head flit.
    return Cycles(hop_count) * cfg_.hopLatency + (flits - 1);
}

void
Network::chargeLink(LinkId link, std::uint32_t flits)
{
    std::uint64_t charged = flits;
    if (faults_ != nullptr) {
        const std::uint32_t mult = faults_->linkFlitMultiplier(link);
        if (mult > 1) {
            charged = std::uint64_t(flits) * mult;
            stats_.degradedLinkFlits += charged - flits;
        }
    }
    epochLinkFlits_[link] += charged;
    lifetimeLinkFlits_[link] += charged;
    noteEpochFlits(link);
    epochRouteFlitsShadow_ += charged;
}

void
Network::chargeRoute(TileId src, TileId dst, std::uint32_t flits)
{
    const std::size_t pair = std::size_t(src) * mesh_.numTiles() + dst;
    const std::uint32_t end = routeOffset_[pair + 1];
    for (std::uint32_t i = routeOffset_[pair]; i < end; ++i)
        chargeLink(routeLinks_[i], flits);
}

std::uint64_t
Network::totalLinkFlits() const
{
    return std::accumulate(epochLinkFlits_.begin(), epochLinkFlits_.end(),
                           std::uint64_t(0));
}

void
Network::resetEpoch()
{
    std::fill(epochLinkFlits_.begin(), epochLinkFlits_.end(), 0);
    epochFlits_ = 0;
    epochMaxLinkFlits_ = 0;
    epochRouteFlitsShadow_ = 0;
}

void
Network::auditConservation(simcheck::CheckContext &ctx) const
{
    std::uint64_t route = 0;
    for (std::uint32_t l = 0; l < mesh_.numLinks(); ++l)
        route += epochLinkFlits_[l];
    if (route != epochRouteFlitsShadow_) {
        ctx.failf("route-link flits %llu != %llu charged this epoch "
                  "(flits lost or duplicated in transit)",
                  static_cast<unsigned long long>(route),
                  static_cast<unsigned long long>(epochRouteFlitsShadow_));
    }
    std::uint64_t injected = 0, ejected = 0;
    for (TileId t = 0; t < mesh_.numTiles(); ++t) {
        injected += epochLinkFlits_[injectPort(t)];
        ejected += epochLinkFlits_[ejectPort(t)];
    }
    if (injected != epochFlits_) {
        ctx.failf("inject-port flits %llu != %llu injected this epoch",
                  static_cast<unsigned long long>(injected),
                  static_cast<unsigned long long>(epochFlits_));
    }
    if (ejected != epochFlits_) {
        ctx.failf("eject-port flits %llu != %llu injected this epoch "
                  "(flits vanished before delivery)",
                  static_cast<unsigned long long>(ejected),
                  static_cast<unsigned long long>(epochFlits_));
    }
}

void
Network::corruptLinkFlitsForTest(std::uint32_t index, std::int64_t delta)
{
    SIM_CHECK("noc", index < epochLinkFlits_.size(),
              "corruptLinkFlitsForTest: index %u out of range", index);
    epochLinkFlits_[index] =
        static_cast<std::uint64_t>(
            static_cast<std::int64_t>(epochLinkFlits_[index]) + delta);
    // A corruption may lower the busiest entry; the running max must
    // track the counters it summarizes.
    epochMaxLinkFlits_ =
        *std::max_element(epochLinkFlits_.begin(), epochLinkFlits_.end());
}

} // namespace affalloc::noc
