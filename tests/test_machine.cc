#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/simcheck.hh"

#include "test_helpers.hh"

using namespace affalloc;
using test::MachineFixture;

TEST(Machine, BankLookupThroughPools)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const auto *info = f.allocator->arrayInfo(p);
    ASSERT_NE(info, nullptr);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(f.machine->bankOfSim(info->simBase + i * 64), BankId(i));
    EXPECT_EQ(f.machine->bankOfHost(p), 0u);
}

TEST(Machine, CoreAccessColdMissGoesToDram)
{
    MachineFixture f;
    void *p = f.allocator->allocPlain(4096);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->beginEpoch();
    const auto out = f.machine->coreAccess(0, sim, 4, AccessType::read);
    EXPECT_EQ(out.servedBy, 4); // DRAM
    EXPECT_EQ(f.machine->stats().l1Misses, 1u);
    EXPECT_EQ(f.machine->stats().l3Misses, 1u);
    EXPECT_EQ(f.machine->stats().dramAccesses, 1u);
    // Second access hits L1.
    const auto out2 = f.machine->coreAccess(0, sim, 4, AccessType::read);
    EXPECT_EQ(out2.servedBy, 1);
    EXPECT_EQ(out2.latency, f.cfg.l1Latency);
}

TEST(Machine, CoreAccessL3HitAfterPreload)
{
    MachineFixture f;
    void *p = f.allocator->allocPlain(4096);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 4096);
    f.machine->beginEpoch();
    const auto out = f.machine->coreAccess(1, sim, 4, AccessType::read);
    EXPECT_EQ(out.servedBy, 3);
    EXPECT_EQ(f.machine->stats().dramAccesses, 0u);
}

TEST(Machine, PreloadChargesNothing)
{
    MachineFixture f;
    void *p = f.allocator->allocPlain(1 << 16);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 1 << 16);
    EXPECT_EQ(f.machine->stats().l3Accesses, 0u);
    EXPECT_EQ(f.machine->stats().cycles, 0u);
}

TEST(Machine, StreamAccessLocalVersusRemote)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 64 * 64);
    f.machine->beginEpoch();
    // Local access: line 0 homed at bank 0, requested from bank 0.
    const auto snap = f.machine->stats();
    f.machine->l3StreamAccess(0, sim, 64, AccessType::read);
    auto delta = f.machine->stats() - snap;
    EXPECT_EQ(delta.totalHops(), 0u);
    EXPECT_EQ(delta.l3Accesses, 1u);
    // Remote: line 5 homed at bank 5, requested from bank 0:
    // request + data response over 5 hops each.
    const auto snap2 = f.machine->stats();
    f.machine->l3StreamAccess(0, sim + 5 * 64, 64, AccessType::read);
    delta = f.machine->stats() - snap2;
    EXPECT_EQ(delta.hops[int(TrafficClass::control)], 5u);
    EXPECT_EQ(delta.hops[int(TrafficClass::data)], 5u);
}

TEST(Machine, AtomicStreamAccessCountsAtomics)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(4096, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 4096);
    f.machine->beginEpoch();
    f.machine->l3StreamAccess(3, sim, 8, AccessType::atomic);
    EXPECT_EQ(f.machine->stats().atomicOps, 1u);
    const auto dur = f.machine->endEpoch();
    EXPECT_GT(dur, 0u);
    // Timeline recorded the atomic at bank 0.
    ASSERT_EQ(f.machine->timeline().size(), 1u);
    EXPECT_EQ(f.machine->timeline().at(0).atomicStreamsPerBank[0], 1u);
}

TEST(Machine, EpochDurationTracksBottleneck)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(1 << 16, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 1 << 16);

    // Few accesses: duration is close to the overhead floor.
    f.machine->beginEpoch();
    f.machine->l3StreamAccess(0, sim, 64, AccessType::read);
    const Cycles small = f.machine->endEpoch();

    // Hammer one bank: duration grows with bank occupancy.
    f.machine->beginEpoch();
    for (int i = 0; i < 5000; ++i)
        f.machine->l3StreamAccess(0, sim, 64, AccessType::read);
    const Cycles big = f.machine->endEpoch();
    EXPECT_GT(big, small + 500);
}

TEST(Machine, LatencyFloorDominatesWhenSerial)
{
    MachineFixture f;
    f.machine->beginEpoch();
    const Cycles dur = f.machine->endEpoch(50000.0);
    EXPECT_GE(dur, 50000u);
}

TEST(Machine, ForwardAndOffloadPrimitives)
{
    MachineFixture f;
    f.machine->beginEpoch();
    f.machine->forwardData(0, 1, 64);
    f.machine->migrateStream(1, 2);
    f.machine->configStream(0, 5);
    f.machine->creditMessage(0, 5);
    const auto &s = f.machine->stats();
    EXPECT_EQ(s.messages[int(TrafficClass::data)], 1u);
    EXPECT_EQ(s.messages[int(TrafficClass::offload)], 2u);
    EXPECT_EQ(s.messages[int(TrafficClass::control)], 1u);
    EXPECT_EQ(s.streamMigrations, 1u);
    EXPECT_EQ(s.streamConfigs, 1u);
}

TEST(Machine, ComputePrimitivesSplitCoreAndSe)
{
    MachineFixture f;
    f.machine->beginEpoch();
    f.machine->coreCompute(0, 100.0);
    f.machine->seCompute(3, 200.0);
    EXPECT_EQ(f.machine->stats().coreOps, 100u);
    EXPECT_EQ(f.machine->stats().seOps, 200u);
}

TEST(Machine, NocUtilizationBounded)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(1 << 14, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 1 << 14);
    f.machine->beginEpoch();
    for (int i = 0; i < 256; ++i)
        f.machine->l3StreamAccess(63, sim + (i % 256) * 64, 64,
                                  AccessType::read);
    f.machine->endEpoch();
    const double util = f.machine->nocUtilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(Machine, DirtyL3EvictionsWriteBack)
{
    MachineFixture f;
    // Write 3 MB through one bank's slice of a 64 B-interleaved pool:
    // bank 0's share (~48 KB... need > 1 MB per bank) - use a large
    // region so bank 0 receives > its 1 MB capacity in dirty lines.
    const std::uint64_t bytes = 128ull << 20; // 2 MB per bank
    void *p = f.allocator->allocInterleaved(bytes, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->beginEpoch();
    for (Addr a = 0; a < bytes; a += 64 * 64) // bank 0 lines only
        f.machine->l3StreamAccess(0, sim + a, 64, AccessType::write);
    f.machine->endEpoch();
    const auto &s = f.machine->stats();
    EXPECT_GT(s.dramBytes, 0u);
    EXPECT_GT(s.l3Misses, 0u);
}

namespace
{

/**
 * Drive two fresh twin machines through the same seeded affine line
 * accesses — one with bankOfSim() + l3StreamAccess(), the other with
 * affineLineAccess() — over heap (Near-L3) and pool (Aff-Alloc) lines,
 * aligned and unaligned, reads and writes, and require identical
 * banks, stats, network counters, L3 contents and epoch durations.
 */
void
expectAffineLineAccessEquivalent(bool offline_bank)
{
    MachineFixture ref;
    MachineFixture fast;
    constexpr std::uint64_t bytes = 256 << 10;
    std::vector<Addr> bases;
    for (MachineFixture *f : {&ref, &fast}) {
        void *heap = f->allocator->allocPlain(bytes);
        void *pool = f->allocator->allocInterleaved(bytes, 64, 0);
        alloc::AffineArray req;
        req.elem_size = sizeof(float);
        req.num_elem = bytes / sizeof(float);
        void *aff = f->allocator->mallocAff(req);
        const mem::AddressSpace &as = f->machine->addressSpace();
        std::vector<Addr> mine = {as.simAddrOf(heap), as.simAddrOf(pool),
                                  as.simAddrOf(aff)};
        if (bases.empty())
            bases = mine;
        ASSERT_EQ(bases, mine); // twins lay out memory identically
        for (Addr b : mine)
            f->machine->preloadL3Range(b, bytes / 2);
        if (offline_bank)
            f->machine->injectBankFault(5);
    }
    ASSERT_NE(bases[0] >= mem::poolVirtBase, bases[1] >= mem::poolVirtBase)
        << "one heap and one pool range";

    Rng rng(77);
    std::set<Addr> touched;
    std::uint64_t unaligned = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        ref.machine->beginEpoch();
        fast.machine->beginEpoch();
        for (int k = 0; k < 1500; ++k) {
            const Addr base = bases[rng.below(bases.size())];
            // The last line is never unaligned, so a split access
            // stays inside the range.
            Addr a = base + rng.below(bytes / 64 - 1) * 64;
            if (rng.chance(0.25)) {
                a += 4 * (1 + rng.below(15));
                ++unaligned;
            }
            const bool is_write = rng.chance(0.4);
            const BankId home = ref.machine->bankOfSim(a);
            ref.machine->l3StreamAccess(
                home, a, 64, is_write ? AccessType::write : AccessType::read);
            ASSERT_EQ(fast.machine->affineLineAccess(a, is_write), home)
                << "vaddr " << a;
            touched.insert(a / 64);
            touched.insert((a + 63) / 64);
        }
        ASSERT_EQ(ref.machine->endEpoch(), fast.machine->endEpoch());
    }
    EXPECT_GT(unaligned, 0u);

    for (const sim::CounterRef &c : sim::statsCounters()) {
        EXPECT_EQ(c.get(ref.machine->stats()), c.get(fast.machine->stats()))
            << c.name;
    }
    EXPECT_EQ(simcheck::digestOfStats(ref.machine->stats()),
              simcheck::digestOfStats(fast.machine->stats()));
    if (offline_bank) {
        EXPECT_EQ(ref.machine->stats().offlineBanks, 1u);
    }
    EXPECT_GT(ref.machine->stats().l3Misses, 0u);
    EXPECT_GT(ref.machine->stats().tlbAccesses, 0u);
    EXPECT_EQ(ref.machine->network().lifetimeLinkFlits(),
              fast.machine->network().lifetimeLinkFlits());
    EXPECT_EQ(ref.machine->network().totalLinkFlits(),
              fast.machine->network().totalLinkFlits());
    EXPECT_DOUBLE_EQ(ref.machine->nocUtilization(),
                     fast.machine->nocUtilization());
    for (Addr vline : touched) {
        const Addr pline = ref.os->pageTable().translate(vline * 64) / 64;
        for (BankId b = 0; b < ref.cfg.numBanks(); ++b) {
            ASSERT_EQ(ref.machine->l3Bank(b).contains(pline),
                      fast.machine->l3Bank(b).contains(pline))
                << "line " << vline << " bank " << b;
        }
    }
    for (BankId b = 0; b < ref.cfg.numBanks(); ++b) {
        EXPECT_EQ(ref.machine->l3Bank(b).residentLines(),
                  fast.machine->l3Bank(b).residentLines());
    }
}

} // namespace

TEST(AffineLineAccess, MatchesBankOfSimPlusStreamAccess)
{
    expectAffineLineAccessEquivalent(/*offline_bank=*/false);
}

TEST(AffineLineAccess, MatchesUnderSpareRedirection)
{
    expectAffineLineAccessEquivalent(/*offline_bank=*/true);
}
