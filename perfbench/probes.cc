/**
 * @file
 * Layer probes of the traced run. Each probe drives one layer's public
 * functions with the workload's own inputs on a throwaway RunContext
 * and reports host time per call. The simulator itself carries no
 * extra instrumentation for this: all timing happens here, outside.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "mem/cache_model.hh"

namespace perfbench
{

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

/** Where one hop endpoint lives in the simulated machine. */
struct Place
{
    const void *host;
    Addr sim;
    BankId bank;
    Addr pline;
};

/** Host ns per element of @p n, or 0 when nothing was timed. */
double
nsPer(double seconds, std::size_t n)
{
    return n ? seconds * 1e9 / double(n) : 0.0;
}

/** Accumulates host time and call counts across a family's probes. */
struct Totals
{
    double mallocS = 0, freeS = 0, cacheS = 0, translateS = 0,
           rangeS = 0, sendS = 0;
    std::uint64_t mallocs = 0, frees = 0, accesses = 0, translates = 0,
                  ranges = 0, sends = 0;
};

/**
 * Run one point's allocation pattern, then drive the memory-system and
 * NoC layers with the hops it produced, then free every block.
 */
void
probePattern(const Point &point, const Inputs &inputs, Totals &tot)
{
    RunContext ctx(runConfig(ExecMode::affAlloc));
    AllocTrace t;
    point.allocPattern(ctx, inputs, t);
    tot.mallocS += t.mallocS;
    tot.mallocs += t.mallocs;

    // Resolve endpoints up front so the timed loops call one layer each.
    const mem::AddressSpace &as = ctx.machine.addressSpace();
    const mem::PageTable &pt = ctx.os.pageTable();
    const std::uint32_t line = ctx.machine.config().lineSize;
    std::vector<Place> places;
    places.reserve(2 * t.hops.size());
    for (const auto &[from, to] : t.hops) {
        for (const void *p : {from, to}) {
            const Addr sim = as.simAddrOf(p);
            places.push_back(
                {p, sim, ctx.machine.bankOfSim(sim), pt.translate(sim) / line});
        }
    }

    auto t0 = Clock::now();
    std::uint64_t found = 0;
    for (const Place &pl : places)
        found += as.rangeContaining(pl.host) != nullptr;
    tot.rangeS += secondsBetween(t0, Clock::now());
    tot.ranges += places.size();

    t0 = Clock::now();
    Addr sink = 0;
    for (const Place &pl : places)
        sink ^= pt.translate(pl.sim);
    tot.translateS += secondsBetween(t0, Clock::now());
    tot.translates += places.size();

    // L3 bank slices with the machine's geometry; one warming sweep so
    // the timed sweep sees the workload's steady-state hit mix.
    const sim::MachineConfig &cfg = ctx.machine.config();
    std::vector<mem::CacheModel> banks;
    banks.reserve(cfg.numBanks());
    for (std::uint32_t b = 0; b < cfg.numBanks(); ++b)
        banks.emplace_back(cfg.l3BankSizeBytes, cfg.l3Assoc, cfg.lineSize,
                           /*hashed_index=*/true);
    for (const Place &pl : places)
        banks[pl.bank].access(pl.pline, false);
    t0 = Clock::now();
    std::uint64_t hits = 0;
    for (const Place &pl : places)
        hits += banks[pl.bank].access(pl.pline, false).hit;
    tot.cacheS += secondsBetween(t0, Clock::now());
    tot.accesses += places.size();

    noc::Network &net = ctx.machine.network();
    t0 = Clock::now();
    Cycles lat = 0;
    for (std::size_t i = 0; i + 1 < places.size(); i += 2)
        lat += net.send(ctx.machine.tileOfBank(places[i].bank),
                        ctx.machine.tileOfBank(places[i + 1].bank),
                        line, TrafficClass::data);
    tot.sendS += secondsBetween(t0, Clock::now());
    tot.sends += places.size() / 2;

    t0 = Clock::now();
    for (void *b : t.blocks)
        ctx.allocator.freeAff(b);
    tot.freeS += secondsBetween(t0, Clock::now());
    tot.frees += t.blocks.size();

    // Keep the timed loops' results alive.
    if (found + sink + hits + lat == 42)
        std::fputc('\n', stderr);
}

} // namespace

ProbeTimes
runProbes(const Family &family, const Inputs &inputs, SpanLog *spans,
          HostSpeed &speed)
{
    ProbeTimes out;
    Totals tot;
    std::vector<double> slowdowns{speed.sample()};
    // Probe span ids follow the timed passes' point ids.
    std::uint64_t id = 1'000'000;
    for (const Point &point : family.points) {
        ++id;
        const int root =
            spans ? spans->open("probe", id, -1, point.label()) : -1;
        if (point.reference) {
            const int s = spans ? spans->open("graph.reference", id, root) : -1;
            const auto t0 = Clock::now();
            point.reference(inputs);
            out.referenceS += secondsBetween(t0, Clock::now());
            if (spans)
                spans->close(s);
        }
        if (point.buildDs) {
            const int s = spans ? spans->open("ds.build", id, root) : -1;
            RunContext ctx(runConfig(point.mode));
            out.dsBuildS += point.buildDs(ctx, inputs);
            if (spans)
                spans->close(s);
        }
        if (point.allocPattern) {
            const int s = spans ? spans->open("probe.layers", id, root) : -1;
            probePattern(point, inputs, tot);
            if (spans)
                spans->close(s);
        }
        if (spans)
            spans->close(root);
        slowdowns.push_back(speed.sample());
    }
    // One factor for all probes: the median slowdown around them.
    std::sort(slowdowns.begin(), slowdowns.end());
    const double f = slowdowns[slowdowns.size() / 2];
    out.referenceS /= f;
    out.dsBuildS /= f;
    tot.mallocS /= f;
    tot.freeS /= f;
    tot.cacheS /= f;
    tot.translateS /= f;
    tot.rangeS /= f;
    tot.sendS /= f;
    out.mallocNs = nsPer(tot.mallocS, tot.mallocs);
    out.freeNs = nsPer(tot.freeS, tot.frees);
    out.cacheAccessNs = nsPer(tot.cacheS, tot.accesses);
    out.translateNs = nsPer(tot.translateS, tot.translates);
    out.rangeLookupNs = nsPer(tot.rangeS, tot.ranges);
    out.sendNs = nsPer(tot.sendS, tot.sends);
    return out;
}

} // namespace perfbench
