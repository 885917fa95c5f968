#include "mem/address_space.hh"

#include <algorithm>
#include <new>

#include <sys/mman.h>

#include "sim/log.hh"

namespace affalloc::mem
{

namespace
{

constexpr std::size_t cacheBytes =
    AddressSpace::cacheSlots * sizeof(const HostRange *);

} // namespace

AddressSpace::AddressSpace()
{
    // Mapped rather than allocated zeroed: pages of the table that no
    // lookup touches stay unbacked, so building a machine does not pay
    // for clearing 512 KB, and kernels that resolve few host lines add
    // no resident memory.
    void *table = ::mmap(nullptr, cacheBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED)
        throw std::bad_alloc();
    cache_.reset(static_cast<const HostRange **>(table));
}

void
AddressSpace::Unmap::operator()(const HostRange **table) const
{
    ::munmap(table, cacheBytes);
}

void
AddressSpace::registerRange(const void *host_ptr, std::size_t bytes,
                            Addr sim_start)
{
    const auto start = reinterpret_cast<std::uintptr_t>(host_ptr);
    if (bytes == 0)
        SIM_FATAL("mem", "cannot register empty host range");
    HostRange range{start, start + bytes, sim_start};
    // Reject overlap with the neighbouring ranges.
    auto next = ranges_.lower_bound(start);
    if (next != ranges_.end() && next->second.hostStart < range.hostEnd)
        SIM_FATAL("mem", "host range overlaps an existing registration");
    if (next != ranges_.begin()) {
        auto prev = std::prev(next);
        if (prev->second.hostEnd > start)
            SIM_FATAL("mem", "host range overlaps an existing registration");
    }
    // No cache invalidation: misses are never cached, and no slot can
    // hold a range overlapping this one.
    ranges_.emplace(start, range);
}

void
AddressSpace::unregisterRange(const void *host_ptr)
{
    const auto start = reinterpret_cast<std::uintptr_t>(host_ptr);
    auto it = ranges_.find(start);
    if (it == ranges_.end())
        SIM_FATAL("mem", "unregister of unknown host range %p", host_ptr);
    // A slot only ever holds a range that contains a pointer of a line
    // mapping to it, so clearing the removed range's own lines is
    // exact.
    const HostRange *gone = &it->second;
    const std::uintptr_t first = start >> lineShift;
    const std::uintptr_t last = (gone->hostEnd - 1) >> lineShift;
    if (last - first + 1 >= cacheSlots) {
        std::fill_n(cache_.get(), cacheSlots, nullptr);
    } else {
        for (std::uintptr_t line = first; line <= last; ++line) {
            const HostRange *&slot = cache_[slotOf(line << lineShift)];
            if (slot == gone)
                slot = nullptr;
        }
    }
    ranges_.erase(it);
}

std::size_t
AddressSpace::numRangesInSimWindow(Addr sim_lo, Addr sim_hi) const
{
    std::size_t n = 0;
    for (const auto &[host, range] : ranges_)
        if (range.simStart >= sim_lo && range.simStart < sim_hi)
            ++n;
    return n;
}

const HostRange *
AddressSpace::rangeContainingMiss(std::uintptr_t p) const
{
    auto it = ranges_.upper_bound(p);
    if (it == ranges_.begin())
        return nullptr;
    --it;
    const HostRange &r = it->second;
    if (p < r.hostStart || p >= r.hostEnd)
        return nullptr;
    if (!referenceMode_)
        cache_[slotOf(p)] = &r;
    return &r;
}

const HostRange *
AddressSpace::rangeStartingAt(const void *host_ptr) const
{
    const auto p = reinterpret_cast<std::uintptr_t>(host_ptr);
    auto it = ranges_.find(p);
    return it == ranges_.end() ? nullptr : &it->second;
}

void
AddressSpace::unregisteredPointer(const void *host_ptr)
{
    SIM_FATAL("mem", "host pointer %p is not in any registered range", host_ptr);
}

Addr
AddressSpace::trySimAddrOf(const void *host_ptr) const
{
    const HostRange *r = rangeContaining(host_ptr);
    if (!r)
        return invalidAddr;
    const auto p = reinterpret_cast<std::uintptr_t>(host_ptr);
    return r->simStart + (p - r->hostStart);
}

} // namespace affalloc::mem
