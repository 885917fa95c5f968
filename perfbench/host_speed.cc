/**
 * @file
 * Host-speed calibration slices (see HostSpeed in bench.hh).
 */

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t tableEntries = 1 << 20;
constexpr std::uint64_t keyMask = (1 << 24) - 1;
constexpr int sliceLookups = 16384;
/** Slice time at the host's uncontended speed (measured, see README). */
constexpr double nominalSliceS = 1.5e-3;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

HostSpeed::HostSpeed()
{
    table_.reserve(tableEntries);
    for (std::uint64_t i = 0; i < tableEntries; ++i)
        table_[xorshift(state_) & keyMask] = i;
}

double
HostSpeed::sample()
{
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int i = 0; i < sliceLookups; ++i) {
        const auto it = table_.find((xorshift(state_) ^ acc) & keyMask);
        if (it != table_.end())
            acc += it->second;
    }
    const double slowdown = secondsBetween(t0, Clock::now()) / nominalSliceS;
    sink_ += acc;
    samples_.push_back(slowdown);
    return slowdown;
}

} // namespace perfbench
