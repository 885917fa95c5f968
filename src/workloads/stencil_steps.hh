/**
 * @file
 * Host-functional time steps of the Rodinia stencils (internal to the
 * affine workloads; unit tests check them against a per-element
 * reference). The simulated machine only replays these kernels' memory
 * streams, so the host computes the real values here.
 *
 * An out-of-grid neighbour reads the centre cell, as in Rodinia. The
 * 2D steps pick each row's up/down neighbour row once and peel the
 * first and last column (forEachColumn), instead of two 64-bit `%` and
 * four bounds tests per element, so their inner loops are branch-free
 * and vectorize. hotspot3D runs a branch-free interior loop and keeps
 * bounds checks for its first and last plane. Every float expression
 * keeps the operands and the evaluation order of the per-element
 * formulation (no -ffast-math, so vector lanes round like scalars),
 * and results are bit for bit the same.
 */

#ifndef AFFALLOC_WORKLOADS_STENCIL_STEPS_HH
#define AFFALLOC_WORKLOADS_STENCIL_STEPS_HH

#include <algorithm>
#include <cstdint>

namespace affalloc::workloads::stencil
{

/**
 * Call cell(c, cl, cr) for every column c of a row of @p cols, where
 * cl/cr index the left/right neighbour, or c itself at the row's
 * ends. The first and last column are peeled, so the interior loop has
 * no boundary test and vectorizes.
 */
template <class Cell>
inline void
forEachColumn(std::uint64_t cols, Cell cell)
{
    if (cols == 0)
        return;
    if (cols == 1) {
        cell(0, 0, 0);
        return;
    }
    cell(0, 0, 1);
    for (std::uint64_t c = 1; c + 1 < cols; ++c)
        cell(c, c - 1, c + 1);
    cell(cols - 1, cols - 2, cols - 1);
}

/** pathfinder: dst[i] = row[i] + min(src[i-1], src[i], src[i+1]). */
inline void
pathfinderStep(const float *src, const float *row, float *dst,
               std::uint64_t n)
{
    forEachColumn(n, [&](std::uint64_t c, std::uint64_t cl,
                         std::uint64_t cr) {
        float best = src[c];
        best = std::min(best, src[cl]);
        best = std::min(best, src[cr]);
        dst[c] = row[c] + best;
    });
}

/** hotspot: one 5-point step over a rows x cols grid. */
inline void
hotspotStep(const float *temp, const float *power, float *out,
            std::uint64_t rows, std::uint64_t cols)
{
    constexpr float cap = 0.2f;
    for (std::uint64_t r = 0; r < rows; ++r) {
        const float *t = temp + r * cols;
        const float *tu = r > 0 ? t - cols : t;
        const float *td = r + 1 < rows ? t + cols : t;
        const float *pw = power + r * cols;
        float *o = out + r * cols;
        forEachColumn(cols, [&](std::uint64_t c, std::uint64_t cl,
                                std::uint64_t cr) {
            o[c] = t[c] + cap * (pw[c] + (tu[c] + td[c] + t[cl] + t[cr] -
                                          4.0f * t[c]));
        });
    }
}

/** srad pass 1: diffusion coefficient from the image gradients. */
inline void
sradCoefStep(const float *img, float *coef, std::uint64_t rows,
             std::uint64_t cols)
{
    for (std::uint64_t r = 0; r < rows; ++r) {
        const float *m = img + r * cols;
        const float *mn = r > 0 ? m - cols : m;
        const float *ms = r + 1 < rows ? m + cols : m;
        float *k = coef + r * cols;
        forEachColumn(cols, [&](std::uint64_t c, std::uint64_t cl,
                                std::uint64_t cr) {
            const float v = m[c];
            const float dn = mn[c] - v;
            const float ds = ms[c] - v;
            const float dw_ = m[cl] - v;
            const float de = m[cr] - v;
            const float g2 =
                (dn * dn + ds * ds + dw_ * dw_ + de * de) / (v * v);
            k[c] = 1.0f / (1.0f + g2);
        });
    }
}

/** srad pass 2: divergence update of the image. */
inline void
sradUpdateStep(const float *img, const float *coef, float *out,
               std::uint64_t rows, std::uint64_t cols)
{
    constexpr float lambda = 0.125f;
    for (std::uint64_t r = 0; r < rows; ++r) {
        const float *m = img + r * cols;
        const float *mn = r > 0 ? m - cols : m;
        const float *ms = r + 1 < rows ? m + cols : m;
        const float *k = coef + r * cols;
        const float *kn = r > 0 ? k - cols : k;
        float *o = out + r * cols;
        forEachColumn(cols, [&](std::uint64_t c, std::uint64_t cl,
                                std::uint64_t cr) {
            const float v = m[c];
            const float div = k[c] * (ms[c] - v) + kn[c] * (mn[c] - v) +
                              k[c] * (m[cr] - v) + k[cl] * (m[cl] - v);
            o[c] = v + lambda * div;
        });
    }
}

/** hotspot3D: one 7-point step over an nx x ny x nz grid. */
inline void
hotspot3dStep(const float *temp, const float *power, float *out,
              std::uint64_t nx, std::uint64_t ny, std::uint64_t nz)
{
    constexpr float cc = 0.1f;
    const std::uint64_t plane = nx * ny;
    const std::uint64_t n = plane * nz;
    const std::int64_t w = static_cast<std::int64_t>(nx);
    const std::int64_t pl = static_cast<std::int64_t>(plane);
    auto cell = [&](std::uint64_t i, float sum) {
        out[i] = temp[i] + cc * (power[i] + sum - 6.0f * temp[i]);
    };
    // First and last plane: a neighbour outside the flat array reads
    // the centre cell.
    auto edge = [&](std::uint64_t i) {
        auto at = [&](std::int64_t j) {
            return (j >= 0 && j < std::int64_t(n)) ? temp[j] : temp[i];
        };
        const std::int64_t si = static_cast<std::int64_t>(i);
        cell(i, at(si - 1) + at(si + 1) + at(si - w) + at(si + w) +
                    at(si - pl) + at(si + pl));
    };
    // Interior planes [plane, n - plane): every neighbour is in range.
    // Empty when nz <= 2.
    const std::uint64_t first_end = std::min(plane, n);
    const std::uint64_t inner_end = n > plane ? n - plane : 0;
    for (std::uint64_t i = 0; i < first_end; ++i)
        edge(i);
    for (std::uint64_t i = plane; i < inner_end; ++i) {
        cell(i, temp[i - 1] + temp[i + 1] + temp[i - nx] + temp[i + nx] +
                    temp[i - plane] + temp[i + plane]);
    }
    for (std::uint64_t i = std::max(first_end, inner_end); i < n; ++i)
        edge(i);
}

} // namespace affalloc::workloads::stencil

#endif // AFFALLOC_WORKLOADS_STENCIL_STEPS_HH
