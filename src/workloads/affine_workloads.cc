#include "workloads/affine_workloads.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/log.hh"
#include "sim/rng.hh"
#include "workloads/stencil_steps.hh"

namespace affalloc::workloads
{

namespace
{

using nsc::AffineRef;

/** Simulated base address of a recorded allocation. */
Addr
simOf(RunContext &ctx, const void *p)
{
    return ctx.machine.addressSpace().simAddrOf(p);
}

/** AffineRef over a recorded float array with an element offset. */
AffineRef
ref(RunContext &ctx, const void *p, std::int64_t offset = 0,
    std::uint32_t elem = 4)
{
    return AffineRef{simOf(ctx, p), elem, offset};
}

/**
 * Allocate a float array per the run's mode: malloc_aff with the
 * given affinity under Aff-Alloc, plain heap otherwise.
 */
float *
allocFloats(RunContext &ctx, std::uint64_t n, const void *align_to,
            std::int64_t align_x = 0)
{
    if (ctx.affinity()) {
        alloc::AffineArray req;
        req.elem_size = sizeof(float);
        req.num_elem = n;
        req.align_to = align_to;
        req.align_x = align_x;
        return static_cast<float *>(ctx.allocator.mallocAff(req));
    }
    return static_cast<float *>(
        ctx.allocator.allocPlain(n * sizeof(float)));
}

void
preloadAll(RunContext &ctx, std::initializer_list<const void *> arrays,
           std::uint64_t bytes)
{
    for (const void *p : arrays)
        ctx.machine.preloadL3Range(simOf(ctx, p), bytes);
}

} // namespace

// ------------------------------------------------------------- vecadd

RunResult
runVecAdd(const RunConfig &rc, const VecAddParams &p)
{
    RunConfig cfg = rc;
    if (p.layout == VecAddLayout::heapRandom)
        cfg.heapPolicy = os::PagePolicy::random;
    RunContext ctx(cfg);
    return runVecAdd(ctx, p);
}

RunResult
runVecAdd(RunContext &ctx, const VecAddParams &p)
{
    float *a = nullptr;
    float *b = nullptr;
    float *c = nullptr;
    const std::uint64_t bytes = p.n * sizeof(float);
    switch (p.layout) {
      case VecAddLayout::poolDelta:
        a = static_cast<float *>(
            ctx.allocator.allocInterleaved(bytes, 64, 0));
        b = static_cast<float *>(
            ctx.allocator.allocInterleaved(bytes, 64, 0));
        c = static_cast<float *>(
            ctx.allocator.allocInterleaved(bytes, 64, p.deltaBank));
        break;
      case VecAddLayout::heapLinear:
      case VecAddLayout::heapRandom:
        a = static_cast<float *>(ctx.allocator.allocPlain(bytes));
        b = static_cast<float *>(ctx.allocator.allocPlain(bytes));
        c = static_cast<float *>(ctx.allocator.allocPlain(bytes));
        break;
      case VecAddLayout::affinity: {
        // Fig. 8(b): B and C aligned element-for-element with A.
        alloc::AffineArray req;
        req.elem_size = sizeof(float);
        req.num_elem = p.n;
        a = static_cast<float *>(ctx.allocator.mallocAff(req));
        req.align_to = a;
        b = static_cast<float *>(ctx.allocator.mallocAff(req));
        c = static_cast<float *>(ctx.allocator.mallocAff(req));
        break;
      }
    }

    // Functional execution on the host.
    for (std::uint64_t i = 0; i < p.n; ++i) {
        a[i] = static_cast<float>(i % 1024);
        b[i] = static_cast<float>((i * 7) % 512);
    }
    for (std::uint64_t i = 0; i < p.n; ++i)
        c[i] = a[i] + b[i];

    if (p.preload)
        preloadAll(ctx, {a, b, c}, bytes);

    // Timed replay: sa, sb forward into sc (Fig. 2(a)).
    ctx.exec.affineKernel({ref(ctx, a), ref(ctx, b)}, {ref(ctx, c)},
                          p.n, 1.0);

    bool valid = true;
    for (std::uint64_t i = 0; i < p.n; i += 997)
        valid &= c[i] == a[i] + b[i];
    return ctx.finish("vecadd", valid);
}

// --------------------------------------------------------- pathfinder

RunResult
runPathfinder(const RunConfig &rc, const PathfinderParams &p)
{
    RunContext ctx(rc);
    return runPathfinder(ctx, p);
}

RunResult
runPathfinder(RunContext &ctx, const PathfinderParams &p)
{
    const std::uint64_t n = p.cols;

    // wall[iters][cols] with intra-array row affinity; src/dst
    // aligned to the wall (Fig. 8(c) pattern).
    float *wall = allocFloats(ctx, std::uint64_t(p.iters) * n, nullptr,
                              static_cast<std::int64_t>(n));
    float *src = allocFloats(ctx, n, wall);
    float *dst = allocFloats(ctx, n, wall);

    Rng rng(21);
    for (std::uint64_t i = 0; i < std::uint64_t(p.iters) * n; ++i)
        wall[i] = static_cast<float>(rng.below(10));
    for (std::uint64_t i = 0; i < n; ++i)
        src[i] = wall[i];
    preloadAll(ctx, {src, dst}, n * sizeof(float));
    preloadAll(ctx, {wall}, std::uint64_t(p.iters) * n * sizeof(float));

    for (int t = 1; t < p.iters; ++t) {
        const float *row = wall + std::uint64_t(t) * n;
        // Host-functional DP step.
        stencil::pathfinderStep(src, row, dst, n);
        // Timed replay: loads src[i-1..i+1] + wall row, store dst.
        ctx.exec.affineKernel(
            {ref(ctx, src, -1), ref(ctx, src, 0), ref(ctx, src, +1),
             ref(ctx, row)},
            {ref(ctx, dst)}, n, 4.0, "iter");
        std::swap(src, dst);
    }

    // Validate against an independent host recomputation.
    std::vector<float> check(wall, wall + n);
    std::vector<float> next(n);
    for (int t = 1; t < p.iters; ++t) {
        const float *row = wall + std::uint64_t(t) * n;
        for (std::uint64_t i = 0; i < n; ++i) {
            float best = check[i];
            if (i > 0)
                best = std::min(best, check[i - 1]);
            if (i + 1 < n)
                best = std::min(best, check[i + 1]);
            next[i] = row[i] + best;
        }
        check.swap(next);
    }
    bool valid = true;
    for (std::uint64_t i = 0; i < n; i += 997)
        valid &= src[i] == check[i];
    return ctx.finish("pathfinder", valid);
}

// ------------------------------------------------------------ hotspot

RunResult
runHotspot(const RunConfig &rc, const HotspotParams &p)
{
    RunContext ctx(rc);
    return runHotspot(ctx, p);
}

RunResult
runHotspot(RunContext &ctx, const HotspotParams &p)
{
    const std::uint64_t n = p.rows * p.cols;
    const std::int64_t w = static_cast<std::int64_t>(p.cols);

    float *temp = allocFloats(ctx, n, nullptr, w);
    float *power = allocFloats(ctx, n, temp);
    float *out = allocFloats(ctx, n, temp);

    Rng rng(22);
    for (std::uint64_t i = 0; i < n; ++i) {
        temp[i] = 300.0f + static_cast<float>(rng.uniform());
        power[i] = static_cast<float>(rng.uniform());
    }
    preloadAll(ctx, {temp, power, out}, n * sizeof(float));

    for (int t = 0; t < p.iters; ++t) {
        stencil::hotspotStep(temp, power, out, p.rows, p.cols);
        ctx.exec.affineKernel(
            {ref(ctx, temp, -w), ref(ctx, temp, +w), ref(ctx, temp, -1),
             ref(ctx, temp, +1), ref(ctx, temp, 0), ref(ctx, power)},
            {ref(ctx, out)}, n, 8.0, "iter");
        std::swap(temp, out);
    }

    bool valid = true;
    for (std::uint64_t i = p.cols + 1; i < n - p.cols - 1; i += 99991)
        valid &= std::isfinite(temp[i]) && temp[i] > 250.0f;
    return ctx.finish("hotspot", valid);
}

// --------------------------------------------------------------- srad

RunResult
runSrad(const RunConfig &rc, const SradParams &p)
{
    RunContext ctx(rc);
    return runSrad(ctx, p);
}

RunResult
runSrad(RunContext &ctx, const SradParams &p)
{
    const std::uint64_t n = p.rows * p.cols;
    const std::int64_t w = static_cast<std::int64_t>(p.cols);

    float *img = allocFloats(ctx, n, nullptr, w);
    float *coef = allocFloats(ctx, n, img);
    float *out = allocFloats(ctx, n, img);

    Rng rng(23);
    for (std::uint64_t i = 0; i < n; ++i)
        img[i] = static_cast<float>(rng.uniform()) + 0.1f;
    preloadAll(ctx, {img, coef, out}, n * sizeof(float));

    for (int t = 0; t < p.iters; ++t) {
        // Pass 1: diffusion coefficient from image gradients.
        stencil::sradCoefStep(img, coef, p.rows, p.cols);
        ctx.exec.affineKernel(
            {ref(ctx, img, -w), ref(ctx, img, +w), ref(ctx, img, -1),
             ref(ctx, img, +1), ref(ctx, img, 0)},
            {ref(ctx, coef)}, n, 12.0, "coef");
        // Pass 2: divergence update.
        stencil::sradUpdateStep(img, coef, out, p.rows, p.cols);
        ctx.exec.affineKernel(
            {ref(ctx, coef, -w), ref(ctx, coef, -1), ref(ctx, coef, 0),
             ref(ctx, img, -w), ref(ctx, img, +w), ref(ctx, img, -1),
             ref(ctx, img, +1), ref(ctx, img, 0)},
            {ref(ctx, out)}, n, 10.0, "update");
        std::swap(img, out);
    }

    bool valid = true;
    for (std::uint64_t i = 0; i < n; i += 99991)
        valid &= std::isfinite(img[i]);
    return ctx.finish("srad", valid);
}

// ----------------------------------------------------------- hotspot3D

RunResult
runHotspot3d(const RunConfig &rc, const Hotspot3dParams &p)
{
    RunContext ctx(rc);
    return runHotspot3d(ctx, p);
}

RunResult
runHotspot3d(RunContext &ctx, const Hotspot3dParams &p)
{
    const std::uint64_t plane = p.nx * p.ny;
    const std::uint64_t n = plane * p.nz;
    const std::int64_t w = static_cast<std::int64_t>(p.nx);
    const std::int64_t pl = static_cast<std::int64_t>(plane);

    float *temp = allocFloats(ctx, n, nullptr, w);
    float *power = allocFloats(ctx, n, temp);
    float *out = allocFloats(ctx, n, temp);

    Rng rng(24);
    for (std::uint64_t i = 0; i < n; ++i) {
        temp[i] = 300.0f + static_cast<float>(rng.uniform());
        power[i] = static_cast<float>(rng.uniform());
    }
    preloadAll(ctx, {temp, power, out}, n * sizeof(float));

    for (int t = 0; t < p.iters; ++t) {
        stencil::hotspot3dStep(temp, power, out, p.nx, p.ny, p.nz);
        ctx.exec.affineKernel(
            {ref(ctx, temp, -1), ref(ctx, temp, +1), ref(ctx, temp, -w),
             ref(ctx, temp, +w), ref(ctx, temp, -pl),
             ref(ctx, temp, +pl), ref(ctx, temp, 0), ref(ctx, power)},
            {ref(ctx, out)}, n, 10.0, "iter");
        std::swap(temp, out);
    }

    bool valid = true;
    for (std::uint64_t i = 0; i < n; i += 99991)
        valid &= std::isfinite(temp[i]) && temp[i] > 250.0f;
    return ctx.finish("hotspot3D", valid);
}

} // namespace affalloc::workloads
