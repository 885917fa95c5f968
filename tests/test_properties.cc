/**
 * @file
 * Parameterized property tests: invariants swept over parameter
 * spaces with TEST_P / INSTANTIATE_TEST_SUITE_P.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hh"
#include "sim/log.hh"
#include "test_helpers.hh"

using namespace affalloc;
using alloc::AffineArray;
using alloc::AllocatorOptions;
using alloc::BankPolicy;
using test::MachineFixture;

// ----------------------------------------------- pool interleavings

class PoolInterleaveProperty
    : public ::testing::TestWithParam<std::tuple<int, BankId>>
{
};

TEST_P(PoolInterleaveProperty, StartBankAndStrideHold)
{
    const auto [pool_idx, start_bank] = GetParam();
    const std::uint64_t intrlv = mem::poolInterleave(pool_idx);
    MachineFixture f;
    char *p = static_cast<char *>(
        f.allocator->allocInterleaved(intrlv * 130, intrlv, start_bank));
    // Eq. 1: block j of the allocation is at bank
    // (start_bank + j) mod 64, for every block.
    for (std::uint64_t j = 0; j < 130; ++j) {
        EXPECT_EQ(f.machine->bankOfHost(p + j * intrlv),
                  BankId((start_bank + j) % 64))
            << "pool " << pool_idx << " block " << j;
        // All bytes inside the block share the bank.
        EXPECT_EQ(f.machine->bankOfHost(p + j * intrlv + intrlv - 1),
                  BankId((start_bank + j) % 64));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoolsAndBanks, PoolInterleaveProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                       ::testing::Values(BankId(0), BankId(17),
                                         BankId(63))));

// ---------------------------------------------- affine alignment law

class AffineAlignmentProperty
    : public ::testing::TestWithParam<
          std::tuple<int /*elemA*/, int /*elemB*/, int /*x blocks*/>>
{
};

TEST_P(AffineAlignmentProperty, Equation2Holds)
{
    const auto [elem_a, elem_b, x_blocks] = GetParam();
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = elem_a;
    a_req.num_elem = 1 << 15;
    void *a = f.allocator->mallocAff(a_req);
    const auto *ai = f.allocator->arrayInfo(a);
    ASSERT_NE(ai, nullptr);
    // Offset by whole interleave blocks so alignment is exact.
    const std::int64_t align_x =
        std::int64_t(x_blocks) * std::int64_t(ai->intrlv) / elem_a;

    AffineArray b_req;
    b_req.elem_size = elem_b;
    b_req.num_elem = 1 << 14;
    b_req.align_to = a;
    b_req.align_x = align_x;
    void *b = f.allocator->mallocAff(b_req);
    const auto *bi = f.allocator->arrayInfo(b);
    ASSERT_NE(bi, nullptr);
    if (bi->intrlv == 0)
        GTEST_SKIP() << "runtime fell back (inexact ratio)";

    // Eq. 2: B[i] and A[i + x] share a bank (sampled).
    for (std::uint64_t i = 0; i < (1 << 14); i += 389) {
        EXPECT_EQ(f.allocator->bankOfElement(b, i),
                  f.allocator->bankOfElement(
                      a, i + std::uint64_t(align_x)))
            << "element " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ElemSizesAndOffsets, AffineAlignmentProperty,
    ::testing::Combine(::testing::Values(4, 8),
                       ::testing::Values(4, 8, 16),
                       ::testing::Values(0, 1, 5)));

// ------------------------------------------------- policy invariants

class PolicyProperty
    : public ::testing::TestWithParam<std::tuple<BankPolicy, int>>
{
};

TEST_P(PolicyProperty, AllocationsAlwaysLandOnLegalBanksAndFree)
{
    const auto [policy, seed] = GetParam();
    AllocatorOptions opts;
    opts.policy = policy;
    opts.seed = std::uint64_t(seed);
    MachineFixture f(opts);
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    Rng rng(seed);
    std::vector<void *> live;
    for (int i = 0; i < 500; ++i) {
        const void *aff[2] = {
            static_cast<char *>(anchor) + rng.below(64) * 64,
            static_cast<char *>(anchor) + rng.below(64) * 64};
        void *p = f.allocator->mallocAff(64, 2, aff);
        ASSERT_NE(p, nullptr);
        EXPECT_LT(f.machine->bankOfHost(p), 64u);
        live.push_back(p);
        if (rng.chance(0.3)) {
            f.allocator->freeAff(live.back());
            live.pop_back();
        }
    }
    // Load accounting matches live allocations.
    std::uint64_t total = 0;
    for (auto l : f.allocator->bankLoads())
        total += l;
    EXPECT_EQ(total, live.size());
    for (void *p : live)
        f.allocator->freeAff(p);
    for (auto l : f.allocator->bankLoads())
        EXPECT_EQ(l, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, PolicyProperty,
    ::testing::Combine(::testing::Values(BankPolicy::random,
                                         BankPolicy::linear,
                                         BankPolicy::minHop,
                                         BankPolicy::hybrid),
                       ::testing::Values(1, 2, 3)));

// --------------------------------------------------- mesh invariants

class MeshProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(MeshProperty, DistanceIsAMetricAndRoutesMatch)
{
    const auto [x, y] = GetParam();
    noc::Mesh mesh(x, y);
    std::vector<noc::LinkId> links;
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        const TileId a = TileId(rng.below(mesh.numTiles()));
        const TileId b = TileId(rng.below(mesh.numTiles()));
        const TileId c = TileId(rng.below(mesh.numTiles()));
        // Symmetry and identity.
        EXPECT_EQ(mesh.distance(a, b), mesh.distance(b, a));
        EXPECT_EQ(mesh.distance(a, a), 0u);
        // Triangle inequality.
        EXPECT_LE(mesh.distance(a, c),
                  mesh.distance(a, b) + mesh.distance(b, c));
        // Route length equals distance.
        links.clear();
        mesh.route(a, b, links);
        EXPECT_EQ(links.size(), mesh.distance(a, b));
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshProperty,
                         ::testing::Values(std::pair{8u, 8u},
                                           std::pair{4u, 4u},
                                           std::pair{16u, 4u},
                                           std::pair{2u, 8u},
                                           std::pair{16u, 16u}));

// ---------------------------------------------- generator invariants

class KroneckerProperty : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(KroneckerProperty, StructurallySoundAtEveryScale)
{
    graph::KroneckerParams p;
    p.scale = GetParam();
    p.edgeFactor = 8;
    const auto g = graph::kronecker(p);
    g.validate();
    EXPECT_EQ(g.numVertices, 1u << GetParam());
    // Symmetric: every edge has its reverse.
    for (graph::VertexId u = 0; u < g.numVertices; u += 37) {
        for (graph::VertexId v : g.neighbors(u)) {
            const auto back = g.neighbors(v);
            EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u))
                << u << "->" << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, KroneckerProperty,
                         ::testing::Values(6u, 8u, 10u, 12u));

// -------------------------------------------- cache model invariants

class CacheProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t /*assoc*/, bool /*hashed*/>>
{
};

TEST_P(CacheProperty, HitAfterFillUntilCapacity)
{
    const auto [assoc, hashed] = GetParam();
    mem::CacheModel cache(64 * 1024, assoc, 64, hashed);
    // Fill half the capacity: everything must still be resident.
    const std::uint64_t lines = (64 * 1024 / 64) / 2;
    for (Addr l = 0; l < lines; ++l)
        cache.access(l * 977, false); // scattered lines
    std::uint64_t hits = 0;
    for (Addr l = 0; l < lines; ++l)
        hits += cache.access(l * 977, false).hit;
    if (hashed) {
        // Hashed indexing is probabilistic: expect the vast majority.
        EXPECT_GT(hits, lines * 9 / 10);
    } else {
        // 977 is odd so modulo indexing spreads sets evenly too.
        EXPECT_GT(hits, lines * 9 / 10);
    }
    EXPECT_LE(cache.residentLines(), 64u * 1024 / 64);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Combine(::testing::Values(4u, 8u, 16u),
                       ::testing::Bool()));
