/**
 * @file
 * The host-functional stencil steps (workloads/stencil_steps.hh) must
 * produce bit-identical floats to the per-element formulation they
 * replace: flat index, 64-bit `%` boundary tests, and a bounds check
 * on every hotspot3D neighbour. The references below keep that
 * formulation verbatim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/rng.hh"
#include "workloads/stencil_steps.hh"

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

void
refPathfinder(const float *src, const float *row, float *dst,
              std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        float best = src[i];
        if (i > 0)
            best = std::min(best, src[i - 1]);
        if (i + 1 < n)
            best = std::min(best, src[i + 1]);
        dst[i] = row[i] + best;
    }
}

void
refHotspot(const float *temp, const float *power, float *out,
           std::uint64_t rows, std::uint64_t cols)
{
    const std::uint64_t n = rows * cols;
    constexpr float cap = 0.2f;
    for (std::uint64_t i = 0; i < n; ++i) {
        const float up = i >= cols ? temp[i - cols] : temp[i];
        const float down = i + cols < n ? temp[i + cols] : temp[i];
        const float left = i % cols ? temp[i - 1] : temp[i];
        const float right = (i + 1) % cols ? temp[i + 1] : temp[i];
        out[i] = temp[i] +
                 cap * (power[i] +
                        (up + down + left + right - 4.0f * temp[i]));
    }
}

void
refSradCoef(const float *img, float *coef, std::uint64_t rows,
            std::uint64_t cols)
{
    const std::uint64_t n = rows * cols;
    for (std::uint64_t i = 0; i < n; ++i) {
        const float c = img[i];
        const float dn = (i >= cols ? img[i - cols] : c) - c;
        const float ds = (i + cols < n ? img[i + cols] : c) - c;
        const float dw_ = (i % cols ? img[i - 1] : c) - c;
        const float de = ((i + 1) % cols ? img[i + 1] : c) - c;
        const float g2 =
            (dn * dn + ds * ds + dw_ * dw_ + de * de) / (c * c);
        coef[i] = 1.0f / (1.0f + g2);
    }
}

void
refSradUpdate(const float *img, const float *coef, float *out,
              std::uint64_t rows, std::uint64_t cols)
{
    const std::uint64_t n = rows * cols;
    constexpr float lambda = 0.125f;
    for (std::uint64_t i = 0; i < n; ++i) {
        const float c = img[i];
        const float cn = i >= cols ? coef[i - cols] : coef[i];
        const float cw_ = i % cols ? coef[i - 1] : coef[i];
        const float div =
            coef[i] * ((i + cols < n ? img[i + cols] : c) - c) +
            cn * ((i >= cols ? img[i - cols] : c) - c) +
            coef[i] * (((i + 1) % cols ? img[i + 1] : c) - c) +
            cw_ * ((i % cols ? img[i - 1] : c) - c);
        out[i] = c + lambda * div;
    }
}

void
refHotspot3d(const float *temp, const float *power, float *out,
             std::uint64_t nx, std::uint64_t ny, std::uint64_t nz)
{
    const std::uint64_t plane = nx * ny;
    const std::uint64_t n = plane * nz;
    const std::int64_t w = static_cast<std::int64_t>(nx);
    const std::int64_t pl = static_cast<std::int64_t>(plane);
    constexpr float cc = 0.1f;
    for (std::uint64_t i = 0; i < n; ++i) {
        auto at = [&](std::int64_t j) {
            return (j >= 0 && j < std::int64_t(n)) ? temp[j] : temp[i];
        };
        const std::int64_t si = static_cast<std::int64_t>(i);
        const float sum = at(si - 1) + at(si + 1) + at(si - w) +
                          at(si + w) + at(si - pl) + at(si + pl);
        out[i] = temp[i] + cc * (power[i] + sum - 6.0f * temp[i]);
    }
}

std::vector<float>
randomFloats(std::uint64_t n, std::uint64_t seed, float lo)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = lo + static_cast<float>(rng.uniform());
    return v;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Shape
{
    std::uint64_t rows, cols;
};

// rows == 1, cols == 1, both, and non-power-of-two sizes.
const Shape shapes2d[] = {{1, 1},  {1, 9},   {9, 1},   {2, 2},
                          {3, 5},  {13, 17}, {31, 64}, {64, 33}};

} // namespace

TEST(StencilSteps, PathfinderMatchesPerElement)
{
    for (std::uint64_t n : {1u, 2u, 3u, 17u, 1000u}) {
        const auto row = randomFloats(n, 1, 0.0f);
        auto a = randomFloats(n, 2, 0.0f);
        auto b = a;
        std::vector<float> na(n), nb(n);
        for (int t = 0; t < 3; ++t) {
            stencil::pathfinderStep(a.data(), row.data(), na.data(), n);
            refPathfinder(b.data(), row.data(), nb.data(), n);
            ASSERT_TRUE(sameBits(na, nb)) << "n=" << n << " t=" << t;
            a.swap(na);
            b.swap(nb);
        }
    }
}

TEST(StencilSteps, HotspotMatchesPerElement)
{
    for (const Shape s : shapes2d) {
        const std::uint64_t n = s.rows * s.cols;
        const auto power = randomFloats(n, 3, 0.0f);
        auto a = randomFloats(n, 4, 300.0f);
        auto b = a;
        std::vector<float> oa(n), ob(n);
        for (int t = 0; t < 3; ++t) {
            stencil::hotspotStep(a.data(), power.data(), oa.data(), s.rows,
                                 s.cols);
            refHotspot(b.data(), power.data(), ob.data(), s.rows, s.cols);
            ASSERT_TRUE(sameBits(oa, ob))
                << s.rows << "x" << s.cols << " t=" << t;
            a.swap(oa);
            b.swap(ob);
        }
    }
}

TEST(StencilSteps, SradPassesMatchPerElement)
{
    for (const Shape s : shapes2d) {
        const std::uint64_t n = s.rows * s.cols;
        auto a = randomFloats(n, 5, 0.1f);
        auto b = a;
        std::vector<float> ca(n), cb(n), oa(n), ob(n);
        for (int t = 0; t < 3; ++t) {
            stencil::sradCoefStep(a.data(), ca.data(), s.rows, s.cols);
            refSradCoef(b.data(), cb.data(), s.rows, s.cols);
            ASSERT_TRUE(sameBits(ca, cb))
                << "coef " << s.rows << "x" << s.cols << " t=" << t;
            stencil::sradUpdateStep(a.data(), ca.data(), oa.data(), s.rows,
                                    s.cols);
            refSradUpdate(b.data(), cb.data(), ob.data(), s.rows, s.cols);
            ASSERT_TRUE(sameBits(oa, ob))
                << "update " << s.rows << "x" << s.cols << " t=" << t;
            a.swap(oa);
            b.swap(ob);
        }
    }
}

TEST(StencilSteps, Hotspot3dMatchesPerElement)
{
    struct Grid
    {
        std::uint64_t nx, ny, nz;
    };
    // nz in {1, 2, 3} leaves the interior loop empty, empty, one plane.
    const Grid grids[] = {{1, 1, 1}, {5, 3, 1}, {7, 5, 2},  {1, 1, 3},
                          {6, 7, 3}, {16, 9, 3}, {4, 4, 5}, {9, 2, 8}};
    for (const Grid g : grids) {
        const std::uint64_t n = g.nx * g.ny * g.nz;
        const auto power = randomFloats(n, 6, 0.0f);
        auto a = randomFloats(n, 7, 300.0f);
        auto b = a;
        std::vector<float> oa(n), ob(n);
        for (int t = 0; t < 3; ++t) {
            stencil::hotspot3dStep(a.data(), power.data(), oa.data(), g.nx,
                                   g.ny, g.nz);
            refHotspot3d(b.data(), power.data(), ob.data(), g.nx, g.ny,
                         g.nz);
            ASSERT_TRUE(sameBits(oa, ob)) << g.nx << "x" << g.ny << "x"
                                          << g.nz << " t=" << t;
            a.swap(oa);
            b.swap(ob);
        }
    }
}
