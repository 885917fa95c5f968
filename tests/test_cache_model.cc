#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache_model.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

using namespace affalloc;
using mem::CacheModel;

TEST(CacheModel, MissThenHit)
{
    CacheModel c(1024, 2, 64); // 16 lines, 8 sets x 2 ways
    EXPECT_FALSE(c.access(100, false).hit);
    EXPECT_TRUE(c.access(100, false).hit);
}

TEST(CacheModel, LruEviction)
{
    CacheModel c(256, 2, 64); // 4 lines, 2 sets x 2 ways
    // Lines 0, 2, 4 all map to set 0 (line & 1 == 0).
    c.access(0, false);
    c.access(2, false);
    c.access(0, false); // touch 0: line 2 becomes LRU
    const auto r = c.access(4, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(2));
    EXPECT_TRUE(c.contains(4));
}

TEST(CacheModel, DirtyEvictionReportsWriteback)
{
    CacheModel c(256, 2, 64);
    c.access(0, true); // dirty
    c.access(2, false);
    const auto r = c.access(4, false); // evicts 0 (LRU, dirty)
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimLine, 0u);
}

TEST(CacheModel, CleanEvictionNoWriteback)
{
    CacheModel c(256, 2, 64);
    c.access(0, false);
    c.access(2, false);
    const auto r = c.access(4, false);
    EXPECT_FALSE(r.writeback);
}

TEST(CacheModel, WriteHitMarksDirty)
{
    CacheModel c(256, 2, 64);
    c.access(0, false);
    c.access(0, true); // now dirty
    c.access(2, false);
    const auto r = c.access(4, false);
    EXPECT_TRUE(r.writeback);
}

TEST(CacheModel, ResidentLinesTracksFills)
{
    CacheModel c(64 * 64, 4, 64);
    for (Addr l = 0; l < 10; ++l)
        c.access(l, false);
    EXPECT_EQ(c.residentLines(), 10u);
    c.access(0, false); // hit: no change
    EXPECT_EQ(c.residentLines(), 10u);
}

TEST(CacheModel, ResetEmptiesCache)
{
    CacheModel c(1024, 2, 64);
    c.access(1, true);
    c.reset();
    EXPECT_FALSE(c.contains(1));
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(CacheModel, RejectsBadGeometry)
{
    EXPECT_THROW(CacheModel(1000, 3, 64), FatalError); // non-pow2 sets
    EXPECT_THROW(CacheModel(0, 2, 64), FatalError);
}

TEST(CacheModel, L3BankGeometryMatchesTable2)
{
    CacheModel c(1024 * 1024, 16, 64);
    EXPECT_EQ(c.numSets(), 1024u);
    EXPECT_EQ(c.assoc(), 16u);
}

TEST(CacheModel, FullWorkingSetStaysResident)
{
    CacheModel c(64 * 1024, 16, 64); // 1024 lines
    for (Addr l = 0; l < 1024; ++l)
        c.access(l, false);
    // Second pass: everything hits (capacity exactly matches).
    for (Addr l = 0; l < 1024; ++l)
        EXPECT_TRUE(c.access(l, false).hit);
}

TEST(CacheModel, OverCapacityWorkingSetThrashes)
{
    CacheModel c(64 * 1024, 16, 64); // 1024 lines
    // 2x capacity streaming with LRU: second pass misses everything.
    for (Addr l = 0; l < 2048; ++l)
        c.access(l, false);
    int hits = 0;
    for (Addr l = 0; l < 2048; ++l)
        hits += c.access(l, false).hit;
    EXPECT_EQ(hits, 0);
}

namespace
{

/**
 * Timestamped true-LRU reference: every resident line carries the
 * clock of its last promotion; the victim is the oldest stamp. A
 * capped fill (accessCapped) lands at recency position
 * assoc - max_ways, which the oracle realizes by re-stamping the set
 * in recency order around the new line.
 */
class LruOracle
{
  public:
    LruOracle(std::uint32_t sets, std::uint32_t assoc, bool hashed)
        : assoc_(assoc), hashed_(hashed), mask_(sets - 1), sets_(sets)
    {
    }

    mem::CacheAccessResult
    access(Addr line, bool is_write)
    {
        mem::CacheAccessResult res;
        auto &set = setOf(line);
        for (Way &w : set) {
            if (w.line == line) {
                w.dirty |= is_write;
                w.stamp = ++clock_;
                res.hit = true;
                return res;
            }
        }
        evictIfFull(set, res);
        set.push_back({line, is_write, ++clock_});
        return res;
    }

    mem::CacheAccessResult
    accessCapped(Addr line, bool is_write, std::uint32_t max_ways)
    {
        if (max_ways >= assoc_)
            return access(line, is_write);
        mem::CacheAccessResult res;
        auto &set = setOf(line);
        for (Way &w : set) {
            if (w.line == line) {
                w.dirty |= is_write; // no promotion
                res.hit = true;
                return res;
            }
        }
        evictIfFull(set, res);
        std::sort(set.begin(), set.end(), [](const Way &a, const Way &b) {
            return a.stamp > b.stamp;
        });
        const std::size_t pos =
            std::min<std::size_t>(set.size(), assoc_ - max_ways);
        set.insert(set.begin() + pos, Way{line, is_write, 0});
        clock_ += assoc_ + 1;
        for (std::size_t k = 0; k < set.size(); ++k)
            set[k].stamp = clock_ - k;
        return res;
    }

    bool
    contains(Addr line) const
    {
        for (const Way &w : sets_[indexOf(line)])
            if (w.line == line)
                return true;
        return false;
    }

    std::uint64_t
    residentLines() const
    {
        std::uint64_t n = 0;
        for (const auto &s : sets_)
            n += s.size();
        return n;
    }

    void
    reset()
    {
        for (auto &s : sets_)
            s.clear();
    }

  private:
    struct Way
    {
        Addr line;
        bool dirty;
        std::uint64_t stamp;
    };

    std::uint32_t
    indexOf(Addr line) const
    {
        if (!hashed_)
            return static_cast<std::uint32_t>(line) & mask_;
        std::uint64_t z = line * 0x9e3779b97f4a7c15ULL;
        z ^= z >> 29;
        return static_cast<std::uint32_t>(z) & mask_;
    }

    std::vector<Way> &setOf(Addr line) { return sets_[indexOf(line)]; }

    void
    evictIfFull(std::vector<Way> &set, mem::CacheAccessResult &res)
    {
        if (set.size() < assoc_)
            return;
        auto lru = std::min_element(
            set.begin(), set.end(),
            [](const Way &a, const Way &b) { return a.stamp < b.stamp; });
        if (lru->dirty) {
            res.writeback = true;
            res.victimLine = lru->line;
        }
        set.erase(lru);
    }

    std::uint32_t assoc_;
    bool hashed_;
    std::uint32_t mask_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t clock_ = 0;
};

} // namespace

TEST(CacheModel, ExactLruAgainstTimestampedOracle)
{
    constexpr std::uint32_t sets = 32;
    constexpr int ops = 100000;
    for (std::uint32_t assoc : {1u, 4u, 8u, 16u}) {
        for (bool hashed : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "assoc " << assoc << (hashed ? " hashed" : " modulo"));
            CacheModel c(std::uint64_t(sets) * assoc * 64, assoc, 64, hashed);
            LruOracle o(sets, assoc, hashed);
            ASSERT_EQ(c.numSets(), sets);
            Rng rng(1000 + assoc * 2 + hashed);
            // Half the lines come from a hot range the size of the
            // cache, half from four times that, so sets fill, hit and
            // evict.
            const std::uint64_t cap = std::uint64_t(sets) * assoc;
            int hits = 0;
            int writebacks = 0;
            for (int k = 0; k < ops; ++k) {
                const Addr line = rng.chance(0.5) ? rng.below(cap)
                                                  : rng.below(4 * cap);
                const bool w = rng.chance(0.3);
                const double pick = rng.uniform();
                mem::CacheAccessResult got, want;
                if (pick < 1e-4) {
                    c.reset();
                    o.reset();
                } else if (pick < 0.7) {
                    got = c.access(line, w);
                    want = o.access(line, w);
                } else {
                    const auto mw =
                        static_cast<std::uint32_t>(1 + rng.below(assoc + 1));
                    got = c.accessCapped(line, w, mw);
                    want = o.accessCapped(line, w, mw);
                }
                ASSERT_EQ(got.hit, want.hit) << "op " << k;
                ASSERT_EQ(got.writeback, want.writeback) << "op " << k;
                ASSERT_EQ(got.victimLine, want.victimLine) << "op " << k;
                ASSERT_EQ(c.residentLines(), o.residentLines()) << "op " << k;
                const Addr other = rng.below(4 * cap);
                ASSERT_EQ(c.contains(line), o.contains(line)) << "op " << k;
                ASSERT_EQ(c.contains(other), o.contains(other)) << "op " << k;
                if (k % 64 == 0) {
                    ASSERT_EQ(c.checkIntegrity(), "") << "op " << k;
                }
                hits += got.hit;
                writebacks += got.writeback;
            }
            EXPECT_EQ(c.checkIntegrity(), "");
            // The mix must both hit and evict dirty lines.
            EXPECT_GT(hits, ops / 10);
            EXPECT_GT(writebacks, ops / 20);
        }
    }
}
