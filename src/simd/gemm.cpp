/**
 * @file
 * The column-major canonical-dot GEMM. Portable: all arithmetic runs
 * through the kernel table it is handed (plus a plain elementwise
 * combine), so the TU itself needs no target flags and one
 * implementation serves every tier.
 *
 * C^T = bias + B * A^T with every C entry computed as one
 * canonical-reduction dot product, evaluated lane-parallel: samples
 * are the vector lanes. Each of the 16 canonical partials, and the
 * tail, is a vector over a tile of samples, advanced term by term with
 * kt.axpy (one elementwise mul + add per lane, no reduction), then the
 * partial vectors are folded elementwise in the canonical combine
 * tree. Per lane this is exactly the operation sequence of
 * kt.dot(A column, B row): the same partial gets the same products in
 * the same order, and IEEE multiplication commutes, so the bits match
 * the naive per-entry `bias[j] + kt.dot(...)` loop in every tier.
 */

#include "simd/simd.h"

#include <algorithm>

namespace dtrank::simd
{

namespace
{

/** Canonical block: 4 lanes x 4-way unroll (see simd.h). */
constexpr std::size_t kBlock = 16;

/**
 * Samples per pass: 17 lane vectors of 128 doubles (16 partials plus
 * the tail) are 17 KiB, resident in L1 while every input row of the
 * tile streams past them once per output.
 */
constexpr std::size_t kLaneTile = 128;

/**
 * The canonical combine tree (simd.h) applied lane by lane, then the
 * tail and the bias: c[i] = bias + (R_i + tail_i).
 */
void
combineLanes(const double (*s)[kLaneTile], std::size_t w, double bias,
             double *c)
{
    for (std::size_t i = 0; i < w; ++i) {
        const double l0 = (s[0][i] + s[4][i]) + (s[8][i] + s[12][i]);
        const double l1 = (s[1][i] + s[5][i]) + (s[9][i] + s[13][i]);
        const double l2 = (s[2][i] + s[6][i]) + (s[10][i] + s[14][i]);
        const double l3 = (s[3][i] + s[7][i]) + (s[11][i] + s[15][i]);
        c[i] = bias + (((l0 + l2) + (l1 + l3)) + s[kBlock][i]);
    }
}

} // namespace

void
gemmDotColumns(const KernelTable &kt, std::size_t m, std::size_t n,
               std::size_t k, const double *at, std::size_t lda,
               const double *b, std::size_t ldb, const double *bias,
               double *ct, std::size_t ldc)
{
    // acc[q] is canonical partial q, acc[kBlock] the tail; each
    // output re-zeroes the w lanes it uses.
    double acc[kBlock + 1][kLaneTile] = {};
    const std::size_t full = k - k % kBlock;
    for (std::size_t i0 = 0; i0 < m; i0 += kLaneTile) {
        const std::size_t w = std::min(kLaneTile, m - i0);
        for (std::size_t j = 0; j < n; ++j) {
            const double *b_row = b + j * ldb;
            for (double(&v)[kLaneTile] : acc)
                std::fill_n(v, w, 0.0);
            for (std::size_t kk = 0; kk < k; ++kk)
                kt.axpy(acc[kk < full ? kk % kBlock : kBlock],
                        at + kk * lda + i0, b_row[kk], w);
            combineLanes(acc, w, bias[j], ct + j * ldc + i0);
        }
    }
}

} // namespace dtrank::simd
