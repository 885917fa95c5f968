/**
 * @file
 * Host-pointer <-> simulated-virtual-address registry. The library is
 * execution-driven: workload data lives in real host memory, while
 * the timing model reasons about simulated addresses. Every
 * allocation registers its host range against its simulated range so
 * either direction can be resolved.
 */

#ifndef AFFALLOC_MEM_ADDRESS_SPACE_HH
#define AFFALLOC_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <map>
#include <memory>

#include "sim/types.hh"

namespace affalloc::mem
{

/** One registered allocation. */
struct HostRange
{
    /** Host address of the first byte. */
    std::uintptr_t hostStart = 0;
    /** One past the last host byte. */
    std::uintptr_t hostEnd = 0;
    /** Simulated virtual address of the first byte. */
    Addr simStart = 0;
};

/**
 * Sorted registry of host ranges with a direct-mapped range cache in
 * front of the sorted map, the same idiom as the page table's
 * software TLB. Each of the cacheSlots slots is indexed by a hash of
 * the 64 B host line and holds the range that last resolved a pointer
 * in a line mapping there, so a lookup costs one slot load and a
 * bounds check however many ranges are live. That count is large on
 * the pointer workloads: in Near-L3 mode every list/tree/hash node is
 * its own registration (the benchmark's pointer_churn keeps 8K live
 * for bin_tree and up to 64K for link_list), so a small recency cache
 * misses on nearly every hop of a chase.
 *
 * The cache is a pure host-side fast path: hits return exactly what
 * the map lookup returns, and misses are never cached, so
 * registerRange() invalidates nothing (ranges never overlap).
 * unregisterRange() clears exactly the slots of the removed range's
 * lines that still point at it; a range spanning at least cacheSlots
 * lines clears the whole table instead.
 * AddressSpaceCache.DifferentialAgainstReference holds every lookup to
 * a plain model of the live ranges under seeded register/unregister
 * traffic.
 *
 * A sorted flat array in place of the map would not help: Near-L3
 * nodes register one at a time in heap free-list order, which is
 * effectively random, so every insert and teardown unregister would
 * move O(live ranges) entries.
 */
class AddressSpace
{
  public:
    /** log2 of the range-cache slot count. */
    static constexpr unsigned cacheBits = 16;
    /**
     * Range-cache slot count (power of two, direct-mapped): 2^16
     * pointers, 512 KB per address space — one slot per live node
     * line of the benchmark's largest Near-L3 chase (link_list, 64K
     * nodes).
     */
    static constexpr std::size_t cacheSlots = std::size_t(1) << cacheBits;

    AddressSpace();

    /** Register a host range backing simulated range @p sim_start. */
    void registerRange(const void *host_ptr, std::size_t bytes,
                       Addr sim_start);

    /** Remove the range starting exactly at @p host_ptr. */
    void unregisterRange(const void *host_ptr);

    /** Simulated address of @p host_ptr; fatal() if unregistered. */
    Addr
    simAddrOf(const void *host_ptr) const
    {
        const HostRange *r = rangeContaining(host_ptr);
        if (!r)
            unregisteredPointer(host_ptr);
        return r->simStart +
               (reinterpret_cast<std::uintptr_t>(host_ptr) - r->hostStart);
    }

    /** Simulated address, or invalidAddr if unregistered. */
    Addr trySimAddrOf(const void *host_ptr) const;

    /** The range starting exactly at @p host_ptr, or nullptr. */
    const HostRange *rangeStartingAt(const void *host_ptr) const;

    /** The range containing @p host_ptr, or nullptr. */
    const HostRange *
    rangeContaining(const void *host_ptr) const
    {
        const auto p = reinterpret_cast<std::uintptr_t>(host_ptr);
        const HostRange *r = cache_[slotOf(p)];
        if (r && p >= r->hostStart && p < r->hostEnd)
            return r;
        return rangeContainingMiss(p);
    }

    /** Number of registered ranges. */
    std::size_t size() const { return ranges_.size(); }

    /**
     * Number of registered ranges whose simulated start address lies
     * in [sim_lo, sim_hi). Linear in the number of ranges (the map is
     * keyed by host address) — meant for hygiene assertions at slot
     * recycle boundaries, not hot paths. The serving front-end uses it
     * to prove a freed tenant arena left no host ranges behind before
     * the arena is handed to the next request.
     */
    std::size_t numRangesInSimWindow(Addr sim_lo, Addr sim_hi) const;

    /**
     * Cache slot that lookups of @p host_ptr use. Exposed so tests can
     * build ranges whose lines collide.
     */
    static std::size_t
    cacheSlotOf(const void *host_ptr)
    {
        return slotOf(reinterpret_cast<std::uintptr_t>(host_ptr));
    }

    /**
     * The range cached in @p host_ptr's slot (nullptr when empty),
     * without filling it. Test-only — lets the unit tests observe
     * fills and invalidations.
     */
    const HostRange *
    cachePeek(const void *host_ptr) const
    {
        return cache_[cacheSlotOf(host_ptr)];
    }

  private:
    /** log2 of the host line size the cache is indexed by. */
    static constexpr unsigned lineShift = 6;

    static std::size_t
    slotOf(std::uintptr_t p)
    {
        // Fold the line's upper bits in so arrays whose bases differ by
        // a multiple of the table's 4 MB span do not alias slot for
        // slot.
        const std::uintptr_t line = p >> lineShift;
        return (line ^ (line >> cacheBits)) & (cacheSlots - 1);
    }

    /** Cache-miss path of rangeContaining(): map lookup + slot fill. */
    const HostRange *rangeContainingMiss(std::uintptr_t p) const;

    /** simAddrOf() on a pointer outside every range: fatal(). */
    [[noreturn]] static void unregisteredPointer(const void *host_ptr);

    std::map<std::uintptr_t, HostRange> ranges_; // keyed by hostStart
    /** Releases the range cache's anonymous mapping. */
    struct Unmap
    {
        void operator()(const HostRange **table) const;
    };
    // Map nodes are pointer-stable, so a cached pointer stays valid
    // until unregisterRange() clears it together with its node. The
    // const lookups fill slots through the owning pointer.
    std::unique_ptr<const HostRange *[], Unmap> cache_;
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_ADDRESS_SPACE_HH
