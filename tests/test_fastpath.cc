/**
 * @file
 * Tests for the host-side performance fast paths: the software TLB in
 * front of the page table, the sorted/MRU Interleave Override Table,
 * the AddressSpace range cache, the parallel sweep runner, and the
 * digest-equivalence guarantee that every fast path produces results
 * bit-identical to the reference (slow) paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <vector>

#include "graph/generators.hh"
#include "harness/sweep.hh"
#include "mem/address_space.hh"
#include "mem/iot.hh"
#include "mem/page_table.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

// ------------------------------------------------------------------
// Software TLB (mem::PageTable)
// ------------------------------------------------------------------

TEST(SoftTlb, TranslateFillsSlot)
{
    mem::PageTable pt;
    pt.map(5, 17);
    EXPECT_FALSE(pt.tlbPeek(5).has_value());
    EXPECT_EQ(pt.translate(mem::pageBase(5) + 12), mem::pageBase(17) + 12);
    ASSERT_TRUE(pt.tlbPeek(5).has_value());
    EXPECT_EQ(pt.tlbPeek(5).value(), 17u);
}

TEST(SoftTlb, DirectMappedEviction)
{
    mem::PageTable pt;
    const Addr v1 = 3;
    const Addr v2 = 3 + mem::PageTable::tlbEntries; // same slot as v1
    pt.map(v1, 100);
    pt.map(v2, 200);
    pt.translate(mem::pageBase(v1));
    EXPECT_TRUE(pt.tlbPeek(v1).has_value());
    // v2 maps to the same direct-mapped slot, evicting v1.
    pt.translate(mem::pageBase(v2));
    EXPECT_FALSE(pt.tlbPeek(v1).has_value());
    ASSERT_TRUE(pt.tlbPeek(v2).has_value());
    EXPECT_EQ(pt.tlbPeek(v2).value(), 200u);
    // Both still translate correctly through the backing table.
    EXPECT_EQ(pt.translate(mem::pageBase(v1)), mem::pageBase(100));
    EXPECT_EQ(pt.translate(mem::pageBase(v2)), mem::pageBase(200));
}

TEST(SoftTlb, InvalidatedOnUnmap)
{
    mem::PageTable pt;
    pt.map(7, 42);
    pt.translate(mem::pageBase(7));
    EXPECT_TRUE(pt.tlbPeek(7).has_value());
    pt.unmap(7);
    EXPECT_FALSE(pt.tlbPeek(7).has_value());
    EXPECT_THROW(pt.translate(mem::pageBase(7)), FatalError);
}

TEST(SoftTlb, InvalidatedOnRemap)
{
    mem::PageTable pt;
    pt.map(7, 42);
    pt.translate(mem::pageBase(7));
    pt.unmap(7);
    pt.map(7, 99);
    // The remap itself must not leave a stale cached translation.
    EXPECT_EQ(pt.translate(mem::pageBase(7) + 3), mem::pageBase(99) + 3);
    EXPECT_EQ(pt.tlbPeek(7).value(), 99u);
}

TEST(SoftTlb, FlushDropsEverything)
{
    mem::PageTable pt;
    for (Addr v = 0; v < 16; ++v) {
        pt.map(v, 1000 + v);
        pt.translate(mem::pageBase(v));
    }
    pt.flushTlb();
    for (Addr v = 0; v < 16; ++v)
        EXPECT_FALSE(pt.tlbPeek(v).has_value());
}

TEST(SoftTlb, ReferenceModeBypassesCache)
{
    mem::PageTable pt;
    pt.setReferenceMode(true);
    pt.map(4, 11);
    EXPECT_EQ(pt.translate(mem::pageBase(4) + 1), mem::pageBase(11) + 1);
    EXPECT_FALSE(pt.tlbPeek(4).has_value());
}

// ------------------------------------------------------------------
// Interleave Override Table: sorted index + neighbour overlap checks
// ------------------------------------------------------------------

TEST(IotFastPath, OutOfOrderInsertLookup)
{
    mem::InterleaveOverrideTable iot(16);
    // Insert in descending start order; the sorted index must still
    // resolve every address.
    iot.insert(0x4000, 0x5000, 64);
    iot.insert(0x2000, 0x3000, 128);
    iot.insert(0x0000, 0x1000, 256);
    ASSERT_NE(iot.lookup(0x0800), nullptr);
    EXPECT_EQ(iot.lookup(0x0800)->intrlv, 256u);
    ASSERT_NE(iot.lookup(0x2800), nullptr);
    EXPECT_EQ(iot.lookup(0x2800)->intrlv, 128u);
    ASSERT_NE(iot.lookup(0x4800), nullptr);
    EXPECT_EQ(iot.lookup(0x4800)->intrlv, 64u);
    // Gaps between entries miss.
    EXPECT_EQ(iot.lookup(0x1800), nullptr);
    EXPECT_EQ(iot.lookup(0x3800), nullptr);
    EXPECT_EQ(iot.lookup(0x9000), nullptr);
}

TEST(IotFastPath, NeighbourOverlapChecksOnInsert)
{
    mem::InterleaveOverrideTable iot(16);
    iot.insert(0x1000, 0x2000, 64);
    // Overlapping the existing range from either side is fatal.
    EXPECT_THROW(iot.insert(0x1800, 0x2800, 64), FatalError);
    EXPECT_THROW(iot.insert(0x0800, 0x1800, 64), FatalError);
    EXPECT_THROW(iot.insert(0x1400, 0x1800, 64), FatalError);
    EXPECT_THROW(iot.insert(0x0800, 0x2800, 64), FatalError);
    // Half-open adjacency on both sides is legal.
    iot.insert(0x0000, 0x1000, 64);
    iot.insert(0x2000, 0x3000, 64);
    EXPECT_EQ(iot.size(), 3u);
}

TEST(IotFastPath, GrowChecksNextNeighbour)
{
    mem::InterleaveOverrideTable iot(16);
    const std::size_t lo = iot.insert(0x0000, 0x1000, 64);
    iot.insert(0x4000, 0x5000, 64);
    iot.grow(lo, 0x3000); // into the gap: fine
    EXPECT_EQ(iot.entry(lo).end, 0x3000u);
    iot.grow(lo, 0x4000); // flush against the neighbour: fine
    EXPECT_THROW(iot.grow(lo, 0x4001), FatalError);
    // Lookups reflect the grown range.
    ASSERT_NE(iot.lookup(0x3fff), nullptr);
    EXPECT_EQ(iot.lookup(0x3fff)->start, 0x0000u);
}

TEST(IotFastPath, ReferenceModeAgrees)
{
    mem::InterleaveOverrideTable fast(16);
    mem::InterleaveOverrideTable ref(16);
    ref.setReferenceMode(true);
    for (Addr base : {Addr(0x8000), Addr(0x2000), Addr(0x5000)}) {
        fast.insert(base, base + 0x1000, 64);
        ref.insert(base, base + 0x1000, 64);
    }
    for (Addr a = 0; a < 0xa000; a += 0x380) {
        const auto *f = fast.lookup(a);
        const auto *r = ref.lookup(a);
        ASSERT_EQ(f == nullptr, r == nullptr) << "addr " << a;
        if (f != nullptr) {
            EXPECT_EQ(f->start, r->start);
            EXPECT_EQ(f->bankOf(a, 64), r->bankOf(a, 64));
        }
    }
}

// ------------------------------------------------------------------
// AddressSpace range cache
// ------------------------------------------------------------------

namespace
{

/**
 * A host address for cache tests. AddressSpace never dereferences the
 * pointers it registers, so tests can lay out ranges (including ones
 * far larger than the cache's span) at synthetic addresses.
 */
const void *
hostAt(std::uintptr_t a)
{
    return reinterpret_cast<const void *>(a);
}

constexpr std::uintptr_t lineBytes = 64;
constexpr std::uintptr_t fakeBase = std::uintptr_t(1) << 32;

} // namespace

TEST(AddressSpaceCache, ManyRangesInterleaved)
{
    mem::AddressSpace as;
    // More concurrently-queried ranges than a small recency cache holds.
    std::vector<std::vector<char>> bufs;
    for (int i = 0; i < 12; ++i)
        bufs.emplace_back(256);
    for (int i = 0; i < 12; ++i)
        as.registerRange(bufs[i].data(), bufs[i].size(),
                         Addr(0x10000) * (i + 1));
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 12; ++i) {
            const auto *r = as.rangeContaining(bufs[i].data() + 100);
            ASSERT_NE(r, nullptr);
            EXPECT_EQ(r->simStart, Addr(0x10000) * (i + 1));
            EXPECT_EQ(as.simAddrOf(bufs[i].data() + 100),
                      Addr(0x10000) * (i + 1) + 100);
        }
    }
}

TEST(AddressSpaceCache, UnregisterClearsOnlyItsOwnSlots)
{
    mem::AddressSpace as;
    const std::uintptr_t a = fakeBase, b = fakeBase + 4 * lineBytes;
    as.registerRange(hostAt(a), 2 * lineBytes, 0x1000);
    as.registerRange(hostAt(b), lineBytes, 0x2000);
    EXPECT_EQ(as.simAddrOf(hostAt(a + 5)), 0x1005u);
    EXPECT_EQ(as.simAddrOf(hostAt(a + lineBytes + 1)), 0x1000u + 65);
    EXPECT_EQ(as.simAddrOf(hostAt(b + 7)), 0x2007u);
    const mem::HostRange *ra = as.cachePeek(hostAt(a));
    ASSERT_NE(ra, nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(a + lineBytes)), ra);
    as.unregisterRange(hostAt(a));
    // No pointer to the erased node may survive in its lines' slots...
    EXPECT_EQ(as.cachePeek(hostAt(a)), nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(a + lineBytes)), nullptr);
    EXPECT_EQ(as.rangeContaining(hostAt(a + 5)), nullptr);
    // ...while the neighbour keeps its cached slot.
    ASSERT_NE(as.cachePeek(hostAt(b)), nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(b))->hostStart, b);
    EXPECT_EQ(as.simAddrOf(hostAt(b + 7)), 0x2007u);
}

TEST(AddressSpaceCache, CollidingLinesShareOneSlot)
{
    mem::AddressSpace as;
    const std::uintptr_t a = fakeBase;
    // Find another line whose slot collides with a's.
    std::uintptr_t b = a + lineBytes;
    while (mem::AddressSpace::cacheSlotOf(hostAt(b)) !=
           mem::AddressSpace::cacheSlotOf(hostAt(a)))
        b += lineBytes;
    as.registerRange(hostAt(a), 16, 0x1000);
    as.registerRange(hostAt(b), 16, 0x9000);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(as.simAddrOf(hostAt(a + 3)), 0x1003u);
        EXPECT_EQ(as.cachePeek(hostAt(a))->hostStart, a);
        EXPECT_EQ(as.simAddrOf(hostAt(b + 3)), 0x9003u);
        EXPECT_EQ(as.cachePeek(hostAt(a))->hostStart, b);
    }
    // Removing the range that does not own the slot leaves it alone.
    as.unregisterRange(hostAt(a));
    ASSERT_NE(as.cachePeek(hostAt(b)), nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(b))->hostStart, b);
    EXPECT_EQ(as.trySimAddrOf(hostAt(a + 3)), invalidAddr);
    EXPECT_EQ(as.simAddrOf(hostAt(b + 3)), 0x9003u);
}

TEST(AddressSpaceCache, RangeLargerThanTableClearsAll)
{
    mem::AddressSpace as;
    const std::uintptr_t big = fakeBase;
    const std::uintptr_t bigBytes =
        (mem::AddressSpace::cacheSlots + 1) * lineBytes;
    const std::uintptr_t small = big + 2 * bigBytes;
    as.registerRange(hostAt(big), bigBytes, 0x100000);
    as.registerRange(hostAt(small), 8, 0x10);
    EXPECT_EQ(as.simAddrOf(hostAt(big + bigBytes - 1)),
              0x100000u + bigBytes - 1);
    EXPECT_EQ(as.simAddrOf(hostAt(big + 12345)), 0x100000u + 12345);
    EXPECT_EQ(as.simAddrOf(hostAt(small + 1)), 0x11u);
    EXPECT_NE(as.cachePeek(hostAt(small)), nullptr);
    as.unregisterRange(hostAt(big));
    // The whole table was cleared, the unrelated slot included.
    EXPECT_EQ(as.cachePeek(hostAt(small)), nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(big + 12345)), nullptr);
    EXPECT_EQ(as.rangeContaining(hostAt(big + 12345)), nullptr);
    EXPECT_EQ(as.simAddrOf(hostAt(small + 1)), 0x11u);
}

TEST(AddressSpaceCache, MissesAreNotCached)
{
    mem::AddressSpace as;
    const std::uintptr_t a = fakeBase + 8;
    EXPECT_EQ(as.rangeContaining(hostAt(a)), nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(a)), nullptr);
    as.registerRange(hostAt(a), 8, 0x4000);
    EXPECT_EQ(as.simAddrOf(hostAt(a + 2)), 0x4002u);
    EXPECT_EQ(as.cachePeek(hostAt(a))->hostStart, a);
    // A pointer in the same line but outside the range still misses.
    EXPECT_EQ(as.rangeContaining(hostAt(a - 1)), nullptr);
    EXPECT_EQ(as.cachePeek(hostAt(a))->hostStart, a);
}

TEST(AddressSpaceCache, ReferenceModeAgrees)
{
    mem::AddressSpace fast, ref;
    ref.setReferenceMode(true);
    std::vector<std::vector<char>> bufs;
    for (int i = 0; i < 6; ++i)
        bufs.emplace_back(128);
    for (int i = 0; i < 6; ++i) {
        fast.registerRange(bufs[i].data(), bufs[i].size(),
                           Addr(0x100000) * (i + 1));
        ref.registerRange(bufs[i].data(), bufs[i].size(),
                          Addr(0x100000) * (i + 1));
    }
    for (int round = 0; round < 2; ++round) {
        for (int i = 5; i >= 0; --i) {
            EXPECT_EQ(fast.trySimAddrOf(bufs[i].data() + 31),
                      ref.trySimAddrOf(bufs[i].data() + 31));
            EXPECT_EQ(ref.cachePeek(bufs[i].data() + 31), nullptr);
        }
    }
    int unrelated = 0;
    EXPECT_EQ(fast.trySimAddrOf(&unrelated), ref.trySimAddrOf(&unrelated));
}

/**
 * Seeded random register/unregister/lookup traffic against a
 * reference-mode twin: small, multi-line and larger-than-table ranges
 * in a region dense enough that lines collide in slots, with lookups
 * at starts, interiors, exclusive ends, just-freed ranges and gaps.
 */
TEST(AddressSpaceCache, DifferentialAgainstReference)
{
    mem::AddressSpace fast, ref;
    ref.setReferenceMode(true);
    Rng rng(0xadd5ace);
    // Twice the table's span, so distinct lines share slots.
    const std::uintptr_t span =
        2 * mem::AddressSpace::cacheSlots * lineBytes;
    std::map<std::uintptr_t, std::uintptr_t> live; // start -> end
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> freed;
    Addr nextSim = 0x1000;

    auto expectSame = [&](std::uintptr_t p) {
        const mem::HostRange *f = fast.rangeContaining(hostAt(p));
        const mem::HostRange *r = ref.rangeContaining(hostAt(p));
        ASSERT_EQ(f == nullptr, r == nullptr) << "ptr " << p;
        if (f) {
            EXPECT_EQ(f->hostStart, r->hostStart);
            EXPECT_EQ(f->hostEnd, r->hostEnd);
            EXPECT_EQ(f->simStart, r->simStart);
            EXPECT_EQ(fast.simAddrOf(hostAt(p)), ref.simAddrOf(hostAt(p)));
        } else {
            EXPECT_THROW(fast.simAddrOf(hostAt(p)), FatalError);
            EXPECT_EQ(fast.trySimAddrOf(hostAt(p)), invalidAddr);
        }
    };
    auto overlapsLive = [&](std::uintptr_t s, std::uintptr_t e) {
        auto it = live.lower_bound(s);
        if (it != live.end() && it->first < e)
            return true;
        return it != live.begin() && std::prev(it)->second > s;
    };

    std::size_t registered = 0, unregistered = 0, bigOnes = 0;
    for (int op = 0; op < 10'000; ++op) {
        const std::uint64_t kind = rng.below(10);
        if (kind < 3 || live.empty()) {
            std::uintptr_t bytes = 1 + rng.below(200);
            std::uintptr_t start = fakeBase + rng.below(span);
            if (rng.below(8) == 0)
                bytes = 1 + rng.below(64 * lineBytes);
            if (rng.below(200) == 0) {
                // Larger than the table, above the small ranges.
                bytes = (mem::AddressSpace::cacheSlots + rng.below(64)) *
                        lineBytes;
                start = fakeBase + span + rng.below(4 * span);
            }
            const std::uintptr_t end = start + bytes;
            if (overlapsLive(start, end)) {
                EXPECT_THROW(fast.registerRange(hostAt(start), bytes, 0),
                             FatalError);
                continue;
            }
            // Miss, register, hit: a miss must not stick.
            expectSame(start);
            fast.registerRange(hostAt(start), bytes, nextSim);
            ref.registerRange(hostAt(start), bytes, nextSim);
            nextSim += bytes + 64;
            live.emplace(start, end);
            expectSame(start);
            expectSame(end - 1);
            ++registered;
            bigOnes += bytes >= mem::AddressSpace::cacheSlots * lineBytes;
        } else if (kind < 5) {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            const auto [start, end] = *it;
            const std::uintptr_t inner = start + rng.below(end - start);
            expectSame(inner); // fills the slot
            const mem::HostRange *gone = fast.rangeContaining(hostAt(inner));
            fast.unregisterRange(hostAt(start));
            ref.unregisterRange(hostAt(start));
            live.erase(it);
            freed.emplace_back(start, end);
            for (std::uintptr_t line = start / lineBytes;
                 line <= (end - 1) / lineBytes &&
                 line < start / lineBytes + 256;
                 ++line)
                EXPECT_NE(fast.cachePeek(hostAt(line * lineBytes)), gone);
            // Just-freed: nullptr, and simAddrOf is fatal.
            EXPECT_EQ(fast.rangeContaining(hostAt(inner)), nullptr);
            EXPECT_THROW(fast.simAddrOf(hostAt(inner)), FatalError);
            ++unregistered;
        } else {
            std::uintptr_t p = fakeBase + rng.below(span);
            const std::uint64_t where = rng.below(4);
            if (where == 0 && !freed.empty()) {
                const auto &[s, e] = freed[rng.below(freed.size())];
                p = s + rng.below(e - s);
            } else if (where != 0) {
                auto it = live.begin();
                std::advance(it, rng.below(live.size()));
                const auto [s, e] = *it;
                p = where == 1 ? s + rng.below(e - s)
                               : (where == 2 ? e : e - 1);
            }
            expectSame(p);
        }
        if (HasFatalFailure())
            return;
    }
    // The traffic really hit every case above.
    EXPECT_GT(registered, 2000u);
    EXPECT_GT(unregistered, 1000u);
    EXPECT_GT(bigOnes, 0u);
    EXPECT_EQ(fast.size(), live.size());
}

// ------------------------------------------------------------------
// Parallel sweep runner
// ------------------------------------------------------------------

TEST(SweepRunner, ParseJobs)
{
    char prog[] = "bench";
    char quick[] = "--quick";
    {
        char *argv[] = {prog, quick};
        EXPECT_EQ(harness::parseJobs(2, argv), 1u);
    }
    {
        char flag[] = "--jobs";
        char val[] = "4";
        char *argv[] = {prog, flag, val};
        EXPECT_EQ(harness::parseJobs(3, argv), 4u);
    }
    {
        char eq[] = "--jobs=7";
        char *argv[] = {prog, quick, eq};
        EXPECT_EQ(harness::parseJobs(3, argv), 7u);
    }
    {
        // --jobs 0 means one worker per hardware thread (>= 1).
        char flag[] = "--jobs";
        char val[] = "0";
        char *argv[] = {prog, flag, val};
        EXPECT_GE(harness::parseJobs(3, argv), 1u);
    }
    {
        ::setenv("AFFALLOC_JOBS", "3", 1);
        char *argv[] = {prog};
        EXPECT_EQ(harness::parseJobs(1, argv), 3u);
        // An explicit flag wins over the environment.
        char eq[] = "--jobs=2";
        char *argv2[] = {prog, eq};
        EXPECT_EQ(harness::parseJobs(2, argv2), 2u);
        ::unsetenv("AFFALLOC_JOBS");
    }
}

TEST(SweepRunner, ResultsInSweepOrderAtAnyJobCount)
{
    std::vector<std::function<int()>> points;
    for (int i = 0; i < 23; ++i)
        points.push_back([i] { return i * i; });
    for (unsigned jobs : {1u, 2u, 4u, 16u}) {
        const std::vector<int> results = harness::runSweep(jobs, points);
        ASSERT_EQ(results.size(), points.size());
        for (int i = 0; i < 23; ++i)
            EXPECT_EQ(results[i], i * i) << "jobs " << jobs;
    }
}

TEST(SweepRunner, AllTasksRunExactlyOnce)
{
    std::atomic<int> calls{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 50; ++i)
        tasks.push_back([&calls] { calls.fetch_add(1); });
    harness::runSweepTasks(4, std::move(tasks));
    EXPECT_EQ(calls.load(), 50);
}

TEST(SweepRunner, LowestIndexedExceptionWins)
{
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i] {
            if (i == 2)
                throw std::runtime_error("task two");
            if (i == 5)
                throw std::runtime_error("task five");
        });
    }
    try {
        harness::runSweepTasks(3, std::move(tasks));
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task two");
    }
}

// ------------------------------------------------------------------
// Digest equivalence: fast paths vs reference (slow) paths
// ------------------------------------------------------------------

namespace
{

RunConfig
withReferencePaths(RunConfig rc)
{
    rc.machine.referencePaths = true;
    return rc;
}

void
expectIdentical(const RunResult &fast, const RunResult &ref)
{
    EXPECT_EQ(fast.digest(), ref.digest());
    EXPECT_EQ(fast.cycles(), ref.cycles());
    EXPECT_EQ(fast.hops(), ref.hops());
    EXPECT_EQ(fast.placementDigest, ref.placementDigest);
    EXPECT_EQ(fast.valid, ref.valid);
}

} // namespace

TEST(DigestEquivalence, VecAddAllModes)
{
    VecAddParams p;
    p.n = 30'000;
    for (ExecMode m :
         {ExecMode::inCore, ExecMode::nearL3, ExecMode::affAlloc}) {
        const RunConfig rc = RunConfig::forMode(m);
        const RunResult fast = runVecAdd(rc, p);
        const RunResult ref = runVecAdd(withReferencePaths(rc), p);
        expectIdentical(fast, ref);
    }
}

TEST(DigestEquivalence, GraphWorkloads)
{
    graph::KroneckerParams kp;
    kp.scale = 10;
    kp.edgeFactor = 8;
    const auto g = graph::kronecker(kp);
    GraphParams p;
    p.graph = &g;
    p.iters = 2;

    const RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
    expectIdentical(runPageRankPush(rc, p),
                    runPageRankPush(withReferencePaths(rc), p));
    expectIdentical(runBfs(rc, p, BfsStrategy::gapSwitch).run,
                    runBfs(withReferencePaths(rc), p,
                           BfsStrategy::gapSwitch)
                        .run);
}

/**
 * The pointer kernels resolve one host pointer per hop, and in
 * Near-L3 mode every node is its own registered range; churn_list
 * also frees and re-allocates nodes between its search epochs, so
 * range-cache invalidation is exercised mid-run.
 */
TEST(DigestEquivalence, PointerWorkloads)
{
    LinkListParams ll;
    ll.numLists = 48;
    ll.nodesPerList = 64;
    HashJoinParams hj;
    hj.buildRows = 4096;
    hj.probeRows = 8192;
    hj.numBuckets = 1024;
    ChurnListParams cl;
    cl.numLists = 32;
    cl.nodesPerList = 48;
    cl.rounds = 4;
    BinTreeParams bt;
    bt.numNodes = 4096;
    bt.numLookups = 8192;
    for (ExecMode m : {ExecMode::nearL3, ExecMode::affAlloc}) {
        SCOPED_TRACE(static_cast<int>(m));
        const RunConfig rc = RunConfig::forMode(m);
        const RunConfig ref = withReferencePaths(rc);
        expectIdentical(runLinkList(rc, ll), runLinkList(ref, ll));
        expectIdentical(runHashJoin(rc, hj), runHashJoin(ref, hj));
        expectIdentical(runChurnList(rc, cl), runChurnList(ref, cl));
        expectIdentical(runBinTree(rc, bt), runBinTree(ref, bt));
    }
}
