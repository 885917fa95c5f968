/**
 * @file
 * The benchmark's three workloads. Each one stresses a different set
 * of simulator layers (README.md beside this file says why):
 *
 *  - affine_stencil: Rodinia stencils at an L3-resident size and at 8x
 *    that size, warm L3. Cache model, affine kernel and translation
 *    dominate; the allocator makes a handful of affine calls.
 *  - graph_powerlaw: bfs / sssp / pr_push on seeded power-law graphs at
 *    a low and a high average degree. Graph generation, reference
 *    solvers, Linked-CSR builds through irregular malloc and NoC
 *    routing dominate.
 *  - pointer_churn: list, hash-join, churning list and tree kernels.
 *    The allocator is used for build, free and recycle.
 *
 * Besides the timed run, every point carries the probes of the traced
 * run: its reference solver, its `ds` build and its allocation
 * pattern, all driven with the point's own inputs.
 */

#include <bit>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "ds/linked_csr.hh"
#include "ds/pointer_structs.hh"
#include "graph/generators.hh"
#include "graph/reference.hh"
#include "sim/rng.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

namespace perfbench
{

using namespace affalloc;
using namespace affalloc::workloads;

std::string
Point::label() const
{
    return kernel + "/" + input + "/" +
           (mode == ExecMode::nearL3 ? "near" : "aff");
}

graph::Csr
generateGraph(const GraphSpec &spec)
{
    return graph::powerLaw(spec.vertices, spec.edges, 2.2, spec.seed,
                           /*weighted=*/true);
}

namespace
{

constexpr ExecMode pairModes[] = {ExecMode::nearL3, ExecMode::affAlloc};
constexpr std::uint32_t lineBytes = 64;

/** One irregular 64 B slot near @p aff (none when null), timed. */
void *
timedSlot(RunContext &ctx, AllocTrace &t, const void *aff)
{
    const auto t0 = Clock::now();
    void *p = ctx.allocator.mallocAff(lineBytes, aff ? 1 : 0, &aff);
    t.mallocS += secondsBetween(t0, Clock::now());
    ++t.mallocs;
    t.blocks.push_back(p);
    if (aff)
        t.hops.emplace_back(aff, p);
    return p;
}

/** Partitioned affine array of @p n elements (the graph/hash layout). */
void *
partitioned(RunContext &ctx, std::uint64_t n, int elem_size)
{
    alloc::AffineArray req;
    req.elem_size = elem_size;
    req.num_elem = n;
    req.partition = true;
    return ctx.allocator.mallocAff(req);
}

/**
 * The affine kernels' float arrays: the first with intra-array row
 * affinity @p row, the rest aligned to it. Each later array's line i
 * forwards against the first array's line i.
 */
void
affinePattern(RunContext &ctx, AllocTrace &t, std::uint64_t first_elems,
              std::uint64_t elems, int others, std::int64_t row)
{
    alloc::AffineArray req;
    req.elem_size = sizeof(float);
    req.num_elem = first_elems;
    req.align_x = row;
    auto t0 = Clock::now();
    auto *first = static_cast<char *>(ctx.allocator.mallocAff(req));
    t.mallocS += secondsBetween(t0, Clock::now());
    ++t.mallocs;
    t.blocks.push_back(first);
    req.num_elem = elems;
    req.align_x = 0;
    req.align_to = first;
    for (int k = 0; k < others; ++k) {
        t0 = Clock::now();
        auto *arr = static_cast<char *>(ctx.allocator.mallocAff(req));
        t.mallocS += secondsBetween(t0, Clock::now());
        ++t.mallocs;
        t.blocks.push_back(arr);
        for (std::uint64_t b = 0; b < elems * sizeof(float); b += lineBytes)
            t.hops.emplace_back(first + b, arr + b);
    }
}

template <typename Params, typename Fn>
void
addAffine(Family &f, const std::string &kernel, const std::string &input,
          const Params &params, Fn fn, std::uint64_t first_elems,
          std::uint64_t elems, std::int64_t row)
{
    for (const ExecMode mode : pairModes) {
        Point p;
        p.kernel = kernel;
        p.input = input;
        p.mode = mode;
        p.run = [params, fn](RunContext &ctx, const Inputs &) {
            return fn(ctx, params);
        };
        if (mode == ExecMode::affAlloc) {
            p.allocPattern = [=](RunContext &ctx, const Inputs &,
                                 AllocTrace &t) {
                affinePattern(ctx, t, first_elems, elems, 2, row);
            };
        }
        f.points.push_back(std::move(p));
    }
}

Family
affineStencil(bool tiny)
{
    // Footprints: "fit" is 9.2-9.4 MB against the modelled 64 MB L3;
    // "8x" multiplies every footprint by 8 (73-75 MB), so it spills to
    // DRAM. One timed iteration each: the 8x points cost ~10x the fit
    // points in host time. Affine inputs are seed-free by construction.
    Family f;
    f.name = "affine_stencil";
    f.seedFree = true;
    const std::uint64_t div = tiny ? 8 : 1;
    const int iters = 1;
    for (const std::uint64_t mult : {std::uint64_t(1), std::uint64_t(8)}) {
        const std::string input = mult == 1 ? "fit" : "8x";
        const std::uint64_t wide = mult == 1 ? 1 : 2;
        const std::uint64_t tall = mult == 1 ? 1 : 4;

        PathfinderParams pf;
        pf.cols = 560 * 1024 * mult / (div * div);
        pf.iters = iters + 1; // the first wall row seeds the DP
        addAffine(
            f, "pathfinder", input, pf,
            [](RunContext &c, const PathfinderParams &p) {
                return runPathfinder(c, p);
            },
            pf.cols * pf.iters, pf.cols, std::int64_t(pf.cols));

        HotspotParams hs;
        hs.rows = 768 * wide / div;
        hs.cols = 1024 * tall / div;
        hs.iters = iters;
        const std::uint64_t hs_n = hs.rows * hs.cols;
        addAffine(
            f, "hotspot", input, hs,
            [](RunContext &c, const HotspotParams &p) {
                return runHotspot(c, p);
            },
            hs_n, hs_n, std::int64_t(hs.cols));

        SradParams sr;
        sr.rows = hs.rows;
        sr.cols = hs.cols;
        sr.iters = iters;
        addAffine(
            f, "srad", input, sr,
            [](RunContext &c, const SradParams &p) { return runSrad(c, p); },
            hs_n, hs_n, std::int64_t(sr.cols));

        Hotspot3dParams h3;
        h3.nx = 256;
        h3.ny = 384 * wide / div;
        h3.nz = 8 * tall / div;
        h3.iters = iters;
        const std::uint64_t h3_n = h3.nx * h3.ny * h3.nz;
        addAffine(
            f, "hotspot3d", input, h3,
            [](RunContext &c, const Hotspot3dParams &p) {
                return runHotspot3d(c, p);
            },
            h3_n, h3_n, std::int64_t(h3.nx));
    }
    f.sizeNote = tiny ? "tiny: footprints / 64"
                      : "fit: 9.2-9.4 MB per kernel, 8x: 73-75 MB per "
                        "kernel, modelled L3 64 MB; 1 timed iteration; "
                        "L3 preloaded";
    return f;
}

/** Linked-CSR node layout: a 64 B node holds 7 weighted edges. */
constexpr std::uint64_t edgesPerNode = 7;

/**
 * Linked-CSR-shaped irregular allocations: one slot per 7 edges of a
 * vertex, with affinity to the destinations' property slots.
 */
void
graphPattern(RunContext &ctx, const graph::Csr &g, AllocTrace &t)
{
    auto *prop = static_cast<const float *>(
        partitioned(ctx, g.numVertices, sizeof(float)));
    t.blocks.push_back(const_cast<float *>(prop));
    std::vector<const void *> affs;
    for (graph::VertexId v = 0; v < g.numVertices; ++v) {
        const auto nbrs = g.neighbors(v);
        for (std::size_t at = 0; at < nbrs.size(); at += edgesPerNode) {
            affs.clear();
            for (std::size_t e = at;
                 e < nbrs.size() && e < at + edgesPerNode; ++e)
                affs.push_back(prop + nbrs[e]);
            const auto t0 = Clock::now();
            void *node = ctx.allocator.mallocAff(
                lineBytes, static_cast<int>(affs.size()), affs.data());
            t.mallocS += secondsBetween(t0, Clock::now());
            ++t.mallocs;
            t.blocks.push_back(node);
            for (const void *a : affs)
                t.hops.emplace_back(node, a);
        }
    }
}

/**
 * The BFS/SSSP source: the vertex of highest out-degree (lowest id on
 * ties). A fixed id such as 0 reaches anything from a handful of
 * vertices to the whole graph depending on the seed, which would make
 * every traversal metric a property of the seed, not of the simulator.
 */
graph::VertexId
hub(const graph::Csr &g)
{
    graph::VertexId best = 0;
    for (graph::VertexId v = 1; v < g.numVertices; ++v)
        if (g.degree(v) > g.degree(best))
            best = v;
    return best;
}

Family
graphPowerlaw(std::uint64_t seed, bool tiny)
{
    // Fig. 19's two ends: same edge count, average degree 4 and 128.
    Family f;
    f.name = "graph_powerlaw";
    const std::uint64_t edges = tiny ? 16 * 1024 : 256 * 1024;
    for (const std::uint32_t degree : {4u, 128u}) {
        GraphSpec g;
        g.tag = "D" + std::to_string(degree);
        g.vertices = static_cast<graph::VertexId>(edges / degree);
        g.edges = edges;
        g.seed = Rng::substreamSeed(seed, f.graphs.size() + 1);
        f.graphs.push_back(g);
    }
    constexpr int prIters = 2;
    using Runner = RunResult (*)(RunContext &, const GraphParams &);
    using Reference = void (*)(const graph::Csr &, graph::VertexId);
    struct Kernel
    {
        const char *name;
        Runner run;
        Reference reference;
        bool weighted;
    };
    const Kernel kernels[] = {
        {"bfs",
         [](RunContext &c, const GraphParams &p) {
             return runBfs(c, p, defaultBfsStrategy(c.config.mode)).run;
         },
         [](const graph::Csr &g, graph::VertexId src) {
             graph::bfsReference(g, src);
         },
         false},
        {"sssp",
         [](RunContext &c, const GraphParams &p) { return runSssp(c, p); },
         [](const graph::Csr &g, graph::VertexId src) {
             graph::ssspReference(g, src);
         },
         true},
        {"pr_push",
         [](RunContext &c, const GraphParams &p) {
             return runPageRankPush(c, p);
         },
         [](const graph::Csr &g, graph::VertexId) {
             graph::pageRankReference(g, prIters);
         },
         false},
    };
    for (int gi = 0; gi < static_cast<int>(f.graphs.size()); ++gi) {
        for (const Kernel &k : kernels) {
            for (const ExecMode mode : pairModes) {
                Point p;
                p.kernel = k.name;
                p.input = f.graphs[gi].tag;
                p.mode = mode;
                p.graph = gi;
                p.run = [gi, k](RunContext &ctx, const Inputs &in) {
                    GraphParams gp;
                    gp.graph = &in.graphs.at(gi);
                    gp.iters = prIters;
                    gp.source = hub(*gp.graph);
                    return k.run(ctx, gp);
                };
                p.reference = [gi, k](const Inputs &in) {
                    const graph::Csr &g = in.graphs.at(gi);
                    k.reference(g, hub(g));
                };
                if (mode == ExecMode::affAlloc) {
                    p.buildDs = [gi, k](RunContext &ctx, const Inputs &in) {
                        const graph::Csr &g = in.graphs.at(gi);
                        const void *prop =
                            partitioned(ctx, g.numVertices, sizeof(float));
                        ds::LinkedCsrOptions o;
                        o.weighted = k.weighted;
                        const auto t0 = Clock::now();
                        ds::LinkedCsr lcsr(g, ctx.allocator, prop,
                                           sizeof(float), o);
                        return secondsBetween(t0, Clock::now());
                    };
                    p.allocPattern = [gi](RunContext &ctx,
                                          const Inputs &in, AllocTrace &t) {
                        graphPattern(ctx, in.graphs.at(gi), t);
                    };
                }
                f.points.push_back(std::move(p));
            }
        }
    }
    f.sizeNote = std::to_string(edges) +
                 " weighted edges per graph, average degree 4 and 128, "
                 "exponent 2.2; pr_push 2 iterations";
    return f;
}

/** Lists appended as in Fig. 10: each node near its predecessor. */
void
listPattern(RunContext &ctx, AllocTrace &t, std::uint32_t lists,
            std::uint32_t nodes)
{
    for (std::uint32_t l = 0; l < lists; ++l) {
        const void *prev = nullptr;
        for (std::uint32_t i = 0; i < nodes; ++i)
            prev = timedSlot(ctx, t, prev);
    }
}

double
buildLists(RunContext &ctx, std::uint32_t lists, std::uint32_t nodes,
           std::uint64_t seed)
{
    Rng rng(seed);
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<ds::AffinityList>> built;
    for (std::uint32_t l = 0; l < lists; ++l) {
        built.push_back(
            std::make_unique<ds::AffinityList>(ctx.allocator, ctx.affinity()));
        for (std::uint32_t i = 0; i < nodes; ++i)
            built.back()->append(rng.next(), i);
    }
    return secondsBetween(t0, Clock::now());
}

double
buildTree(RunContext &ctx, const BinTreeParams &p)
{
    Rng rng(p.seed);
    const auto t0 = Clock::now();
    ds::AffinityTree tree(ctx.allocator, ctx.affinity());
    for (std::uint64_t i = 0; i < p.numNodes; ++i)
        tree.insert(rng.next(), i);
    return secondsBetween(t0, Clock::now());
}

/**
 * Each node near its parent under plain BST insertion of the kernel's
 * key stream (duplicates go right), as AffinityTree::insert places it.
 */
void
treePattern(RunContext &ctx, const BinTreeParams &p, AllocTrace &t)
{
    struct Host
    {
        std::uint64_t key;
        std::size_t child[2];
        const void *slot;
    };
    constexpr std::size_t none = ~std::size_t(0);
    std::vector<Host> tree;
    tree.reserve(p.numNodes); // `link` below must survive push_back
    Rng rng(p.seed);
    for (std::uint64_t i = 0; i < p.numNodes; ++i) {
        const std::uint64_t key = rng.next();
        const void *parent = nullptr;
        std::size_t *link = nullptr;
        for (std::size_t at = tree.empty() ? none : 0; at != none;) {
            Host &h = tree[at];
            parent = h.slot;
            link = &h.child[key >= h.key];
            at = *link;
        }
        if (link)
            *link = tree.size();
        tree.push_back({key, {none, none}, timedSlot(ctx, t, parent)});
    }
}

template <typename Params, typename Run, typename Build, typename Pattern>
void
addPointer(Family &f, const std::string &kernel, const std::string &input,
           const Params &params, Run run, Build build, Pattern pattern)
{
    for (const ExecMode mode : pairModes) {
        Point p;
        p.kernel = kernel;
        p.input = input;
        p.mode = mode;
        p.run = [params, run](RunContext &ctx, const Inputs &) {
            return run(ctx, params);
        };
        p.buildDs = [params, build](RunContext &ctx, const Inputs &) {
            return build(ctx, params);
        };
        if (mode == ExecMode::affAlloc) {
            p.allocPattern = [params, pattern](RunContext &ctx,
                                               const Inputs &,
                                               AllocTrace &t) {
                pattern(ctx, params, t);
            };
        }
        f.points.push_back(std::move(p));
    }
}

Family
pointerChurn(std::uint64_t seed, bool tiny)
{
    Family f;
    f.name = "pointer_churn";
    const std::uint32_t div = tiny ? 16 : 1;

    LinkListParams ll;
    ll.numLists = 256 / div;
    ll.nodesPerList = 256;
    ll.seed = Rng::substreamSeed(seed, 1);
    addPointer(
        f, "link_list", "base", ll,
        [](RunContext &c, const LinkListParams &p) {
            return runLinkList(c, p);
        },
        [](RunContext &c, const LinkListParams &p) {
            return buildLists(c, p.numLists, p.nodesPerList, p.seed);
        },
        [](RunContext &c, const LinkListParams &p, AllocTrace &t) {
            listPattern(c, t, p.numLists, p.nodesPerList);
        });

    HashJoinParams hj;
    hj.buildRows = 32 * 1024 / div;
    hj.probeRows = 64 * 1024 / div;
    hj.numBuckets = 8 * 1024 / div;
    hj.seed = Rng::substreamSeed(seed, 2);
    addPointer(
        f, "hash_join", "base", hj,
        [](RunContext &c, const HashJoinParams &p) {
            return runHashJoin(c, p);
        },
        [](RunContext &c, const HashJoinParams &p) {
            Rng rng(p.seed);
            const auto t0 = Clock::now();
            ds::HashJoinTable table(c.allocator, p.numBuckets, c.affinity());
            for (std::uint64_t i = 0; i < p.buildRows; ++i)
                table.insert(rng.next() | 1, i);
            return secondsBetween(t0, Clock::now());
        },
        [](RunContext &c, const HashJoinParams &p, AllocTrace &t) {
            // Chain nodes near their bucket's head slot, buckets chosen
            // by the table's Fibonacci hash of the same key stream.
            auto *buckets = static_cast<const char *>(
                partitioned(c, p.numBuckets, sizeof(void *)));
            t.blocks.push_back(const_cast<char *>(buckets));
            const int shift = 64 - std::countr_zero(p.numBuckets);
            Rng rng(p.seed);
            for (std::uint64_t i = 0; i < p.buildRows; ++i) {
                const std::uint64_t key = rng.next() | 1;
                const std::uint64_t b =
                    (key * 0x9e3779b97f4a7c15ULL) >> shift;
                timedSlot(c, t, buckets + b * sizeof(void *));
            }
        });

    ChurnListParams cl;
    cl.numLists = 256 / div;
    cl.nodesPerList = 128;
    cl.rounds = 4;
    cl.seed = Rng::substreamSeed(seed, 3);
    addPointer(
        f, "churn_list", "base", cl,
        [](RunContext &c, const ChurnListParams &p) {
            return runChurnList(c, p);
        },
        [](RunContext &c, const ChurnListParams &p) {
            return buildLists(c, p.numLists, p.nodesPerList, p.seed);
        },
        [](RunContext &c, const ChurnListParams &p, AllocTrace &t) {
            listPattern(c, t, p.numLists, p.nodesPerList);
        });

    // An unbalanced tree's top levels, and so its hottest banks, are set
    // by its first few keys: one tree's Aff-Alloc speedup ranges 1.6-4.4x
    // across seeds. Four independent trees average that out.
    for (std::uint64_t tree = 0; tree < 4; ++tree) {
        BinTreeParams bt;
        bt.numNodes = 8 * 1024 / div;
        bt.numLookups = 16 * 1024 / div;
        bt.seed = Rng::substreamSeed(seed, 4 + tree);
        addPointer(
            f, "bin_tree", "t" + std::to_string(tree), bt,
            [](RunContext &c, const BinTreeParams &p) {
                return runBinTree(c, p);
            },
            buildTree, treePattern);
    }

    f.sizeNote = tiny ? "tiny: sizes / 16"
                      : "link_list 256x256, hash_join 32k build / 64k "
                        "probe, churn_list 256x128 x 4 rounds, 4 bin_trees "
                        "of 8k nodes / 16k lookups";
    return f;
}

} // namespace

Family
makeFamily(const std::string &name, std::uint64_t seed, bool tiny)
{
    if (name == "affine_stencil")
        return affineStencil(tiny);
    if (name == "graph_powerlaw")
        return graphPowerlaw(seed, tiny);
    if (name == "pointer_churn")
        return pointerChurn(seed, tiny);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace perfbench
