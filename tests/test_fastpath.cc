/**
 * @file
 * Tests for the host-side performance fast paths: the software TLB in
 * front of the page table, the sorted/MRU Interleave Override Table
 * and the AddressSpace range cache, each held to a plain model of the
 * structure it fronts (the fast-path oracles), plus the parallel
 * sweep runner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/sweep.hh"
#include "mem/address.hh"
#include "mem/address_space.hh"
#include "mem/iot.hh"
#include "mem/page_table.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

using namespace affalloc;

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

/**
 * Seeded map/unmap/remap/flush/translate traffic against a plain
 * unordered_map model, over vpages that share a handful of TLB slots
 * (same vpage & 1023), so fills evict each other and a stale entry
 * left by unmap, remap or a conflicting fill would show.
 */
TEST(SoftTlb, DifferentialAgainstMapModel)
{
    mem::PageTable pt;
    std::unordered_map<Addr, Addr> model;
    Rng rng(0x5077715b);
    constexpr Addr slots = 6, aliases = 8;
    auto pickVpage = [&] {
        return 7 + rng.below(slots) +
               rng.below(aliases) * mem::PageTable::tlbEntries;
    };
    Addr nextPpage = 1;

    std::size_t hits = 0, misses = 0, remaps = 0, flushes = 0;
    for (int op = 0; op < 20'000; ++op) {
        const Addr v = pickVpage();
        const auto it = model.find(v);
        const std::uint64_t kind = rng.below(16);
        if (kind < 3) {
            if (it != model.end()) {
                EXPECT_THROW(pt.map(v, nextPpage), FatalError);
                continue;
            }
            pt.map(v, nextPpage);
            model.emplace(v, nextPpage++);
        } else if (kind < 5) {
            if (it == model.end()) {
                EXPECT_THROW(pt.unmap(v), FatalError);
                continue;
            }
            pt.unmap(v);
            model.erase(it);
        } else if (kind < 6) {
            if (it == model.end())
                continue;
            // Remap to a new frame; the old translation must not
            // survive in the slot.
            pt.unmap(v);
            pt.map(v, nextPpage);
            it->second = nextPpage++;
            ++remaps;
        } else if (kind < 7) {
            pt.flushTlb();
            ++flushes;
        } else {
            const Addr vaddr = mem::pageBase(v) + rng.below(mem::pageSize);
            const bool cached = pt.tlbPeek(v).has_value();
            std::optional<Addr> got;
            if (kind < 12)
                got = pt.tryTranslate(vaddr);
            else if (it != model.end())
                got = pt.translate(vaddr);
            if (it == model.end()) {
                EXPECT_FALSE(got.has_value()) << "vpage " << v;
                EXPECT_THROW(pt.translate(vaddr), FatalError);
                EXPECT_FALSE(pt.tlbPeek(v).has_value());
            } else {
                ASSERT_TRUE(got.has_value()) << "vpage " << v;
                EXPECT_EQ(*got, mem::pageBase(it->second) +
                                    mem::pageOffset(vaddr));
                // A successful translation leaves its page in the slot.
                EXPECT_EQ(pt.tlbPeek(v), std::optional<Addr>(it->second));
                (cached ? hits : misses) += 1;
            }
        }
        // Whatever the slot caches is the model's current mapping.
        for (Addr s = 0; s < slots; ++s) {
            for (Addr a = 0; a < aliases; ++a) {
                const Addr w = 7 + s + a * mem::PageTable::tlbEntries;
                const std::optional<Addr> peek = pt.tlbPeek(w);
                const auto m = model.find(w);
                if (peek) {
                    ASSERT_TRUE(m != model.end() && *peek == m->second)
                        << "stale slot for vpage " << w;
                }
                ASSERT_EQ(pt.isMapped(w), m != model.end());
            }
        }
        ASSERT_EQ(pt.size(), model.size());
    }
    // The traffic really hit every case above.
    EXPECT_GT(hits, 300u);
    EXPECT_GT(misses, 1000u);
    EXPECT_GT(remaps, 100u);
    EXPECT_GT(flushes, 100u);
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

namespace
{

/** The original IOT lookup: a linear scan over every entry. */
const mem::IotEntry *
linearScan(const mem::InterleaveOverrideTable &iot, Addr paddr)
{
    for (std::size_t i = 0; i < iot.size(); ++i)
        if (iot.entry(i).contains(paddr))
            return &iot.entry(i);
    return nullptr;
}

} // namespace

/**
 * Seeded out-of-order inserts and grows against a linear scan over
 * entry(i): lookups land on starts, last bytes, exclusive ends, gaps
 * and alternate between two pools so the MRU slot keeps flipping.
 */
TEST(IotFastPath, DifferentialAgainstLinearScan)
{
    constexpr std::uint32_t capacity = 16;
    constexpr Addr region = 0x100000;
    Rng rng(0x1075ca4);
    std::size_t lookups = 0, flips = 0, grows = 0, refusedGrows = 0,
                refusedInserts = 0;
    for (int table = 0; table < 40; ++table) {
        mem::InterleaveOverrideTable iot(capacity);
        // One region per entry, visited in a random order, so inserts
        // arrive out of start order.
        std::vector<Addr> order;
        for (Addr r = 0; r < capacity; ++r)
            order.push_back(r);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);

        auto probe = [&](Addr a) {
            ASSERT_EQ(iot.lookup(a), linearScan(iot, a)) << "paddr " << a;
            ++lookups;
        };
        auto probeAround = [&](const mem::IotEntry &e) {
            probe(e.start);
            probe(e.end - 1);
            probe(e.end);
            probe(e.start + rng.below(e.end - e.start));
            if (e.start > 0)
                probe(e.start - 1);
        };
        for (Addr r : order) {
            const Addr start = r * region + rng.below(region / 4) * 64;
            const Addr end = start + (1 + rng.below(region / 256)) * 64;
            const std::uint32_t intrlv = 64u << rng.below(6);
            // An earlier grow may already reach into this region.
            bool hit = false;
            for (std::size_t i = 0; i < iot.size(); ++i)
                hit |= iot.entry(i).start < end && start < iot.entry(i).end;
            if (hit) {
                EXPECT_THROW(iot.insert(start, end, intrlv), FatalError);
                ++refusedInserts;
                continue;
            }
            iot.insert(start, end, intrlv);
            // Grow a random entry, sometimes into its next neighbour.
            const std::size_t g = rng.below(iot.size());
            const mem::IotEntry before = iot.entry(g);
            const Addr newEnd =
                before.end + rng.below(2 * region / 64) * 64;
            bool overlaps = false;
            for (std::size_t i = 0; i < iot.size(); ++i)
                overlaps |= i != g && iot.entry(i).start >= before.end &&
                            iot.entry(i).start < newEnd;
            if (overlaps) {
                EXPECT_THROW(iot.grow(g, newEnd), FatalError);
                EXPECT_EQ(iot.entry(g).end, before.end);
                ++refusedGrows;
            } else {
                iot.grow(g, newEnd);
                EXPECT_EQ(iot.entry(g).end, newEnd);
                ++grows;
            }
            for (std::size_t i = 0; i < iot.size(); ++i)
                probeAround(iot.entry(i));
            // Alternate two pools: every lookup misses the MRU slot.
            const std::size_t a = rng.below(iot.size());
            const std::size_t b = rng.below(iot.size());
            for (int k = 0; k < 8; ++k) {
                const mem::IotEntry &e = iot.entry(k % 2 ? b : a);
                probe(e.start + rng.below(e.end - e.start));
                flips += a != b;
            }
            for (int k = 0; k < 16; ++k)
                probe(rng.below(capacity * region + region));
            if (HasFatalFailure())
                return;
        }
        if (iot.size() == capacity) {
            EXPECT_THROW(iot.insert(8 * capacity * region,
                                    9 * capacity * region, 64),
                         FatalError);
        }
    }
    EXPECT_GT(lookups, 20'000u);
    EXPECT_GT(flips, 1000u);
    EXPECT_GT(grows, 100u);
    EXPECT_GT(refusedGrows, 10u);
    EXPECT_GT(refusedInserts, 10u);
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

/**
 * Seeded random register/unregister/lookup traffic against a plain
 * model of the live ranges (start -> end, sim): small, multi-line and
 * larger-than-table ranges in a region dense enough that lines collide
 * in slots, with lookups at starts, interiors, exclusive ends,
 * just-freed ranges and gaps.
 */
TEST(AddressSpaceCache, DifferentialAgainstReference)
{
    mem::AddressSpace fast;
    Rng rng(0xadd5ace);
    // Twice the table's span, so distinct lines share slots.
    const std::uintptr_t span =
        2 * mem::AddressSpace::cacheSlots * lineBytes;
    struct Live
    {
        std::uintptr_t end;
        Addr sim;
    };
    std::map<std::uintptr_t, Live> live; // keyed by start
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> freed;
    Addr nextSim = 0x1000;

    auto expectSame = [&](std::uintptr_t p) {
        const mem::HostRange *f = fast.rangeContaining(hostAt(p));
        auto it = live.upper_bound(p);
        const bool inside =
            it != live.begin() && p < std::prev(it)->second.end;
        ASSERT_EQ(f != nullptr, inside) << "ptr " << p;
        if (f) {
            const auto &[start, r] = *std::prev(it);
            EXPECT_EQ(f->hostStart, start);
            EXPECT_EQ(f->hostEnd, r.end);
            EXPECT_EQ(f->simStart, r.sim);
            EXPECT_EQ(fast.simAddrOf(hostAt(p)), r.sim + (p - start));
            EXPECT_EQ(fast.trySimAddrOf(hostAt(p)), r.sim + (p - start));
        } else {
            EXPECT_THROW(fast.simAddrOf(hostAt(p)), FatalError);
            EXPECT_EQ(fast.trySimAddrOf(hostAt(p)), invalidAddr);
        }
    };
    auto overlapsLive = [&](std::uintptr_t s, std::uintptr_t e) {
        auto it = live.lower_bound(s);
        if (it != live.end() && it->first < e)
            return true;
        return it != live.begin() && std::prev(it)->second.end > s;
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
            live.emplace(start, Live{end, nextSim});
            nextSim += bytes + 64;
            expectSame(start);
            expectSame(end - 1);
            ++registered;
            bigOnes += bytes >= mem::AddressSpace::cacheSlots * lineBytes;
        } else if (kind < 5) {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            const std::uintptr_t start = it->first, end = it->second.end;
            const std::uintptr_t inner = start + rng.below(end - start);
            expectSame(inner); // fills the slot
            const mem::HostRange *gone = fast.rangeContaining(hostAt(inner));
            fast.unregisterRange(hostAt(start));
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
                const std::uintptr_t s = it->first, e = it->second.end;
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
    {
        char top[] = "--jobs=1024";
        char *argv[] = {prog, top};
        EXPECT_EQ(harness::parseJobs(2, argv), 1024u);
    }
    // Malformed counts fail instead of becoming some other count.
    for (const char *bad : {"", "abc", "4x", "-3", "+2", " 4", "1025",
                            "99999999999999999999"}) {
        std::string eq = std::string("--jobs=") + bad;
        char *argv[] = {prog, eq.data()};
        EXPECT_THROW(harness::parseJobs(2, argv), FatalError) << eq;
        char flag[] = "--jobs";
        std::string val = bad;
        char *argv2[] = {prog, flag, val.data()};
        EXPECT_THROW(harness::parseJobs(3, argv2), FatalError)
            << "--jobs '" << bad << "'";
    }
    for (const char *bad : {"abc", "4x", "-3", "1025"}) {
        ::setenv("AFFALLOC_JOBS", bad, 1);
        char *argv[] = {prog};
        EXPECT_THROW(harness::parseJobs(1, argv), FatalError) << bad;
    }
    ::unsetenv("AFFALLOC_JOBS");
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

TEST(SweepRunner, NestedSweepsRunEveryTaskOnce)
{
    constexpr int outer = 6, inner = 9;
    std::vector<std::atomic<int>> calls(outer * inner);
    std::vector<std::function<std::vector<int>()>> points;
    for (int o = 0; o < outer; ++o) {
        points.push_back([o, &calls] {
            std::vector<std::function<int()>> sub;
            for (int i = 0; i < inner; ++i) {
                sub.push_back([o, i, &calls] {
                    calls[o * inner + i].fetch_add(1);
                    return o * 100 + i;
                });
            }
            return harness::runSweep(4, sub);
        });
    }
    const std::vector<std::vector<int>> results =
        harness::runSweep(4, points);
    ASSERT_EQ(results.size(), std::size_t(outer));
    for (int o = 0; o < outer; ++o) {
        ASSERT_EQ(results[o].size(), std::size_t(inner));
        for (int i = 0; i < inner; ++i)
            EXPECT_EQ(results[o][i], o * 100 + i);
    }
    for (const std::atomic<int> &c : calls)
        EXPECT_EQ(c.load(), 1);

    // An inner failure surfaces from the lowest failing outer index.
    std::vector<std::function<void()>> tasks;
    for (int o = 0; o < outer; ++o) {
        tasks.push_back([o] {
            std::vector<std::function<void()>> sub;
            for (int i = 0; i < inner; ++i) {
                sub.push_back([o, i] {
                    if ((o == 1 || o == 4) && i == 7)
                        throw std::runtime_error("outer " +
                                                 std::to_string(o));
                });
            }
            harness::runSweepTasks(4, std::move(sub));
        });
    }
    try {
        harness::runSweepTasks(4, std::move(tasks));
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "outer 1");
    }
}
