/**
 * @file
 * The dense best-fit line scan behind NN^T and kNN^T: for every target
 * machine, the simple linear regression y = a + b*x against every
 * predictive machine over the training benchmarks (Section 3.2.1 of
 * the paper). NN^T keeps the best fit per target; kNN^T ranks all of
 * them and keeps the k best.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "stats/descriptive.h"
#include "util/thread_pool.h"

namespace dtrank::core
{

/** One (target, predictor) line fit. */
struct LineFit
{
    double rss = 0.0;       ///< residual sum of squares
    double rSquared = 0.0;  ///< 1 - rss / ss_tot (1 or 0 if ss_tot == 0)
    double intercept = 0.0; ///< a in y = a + b*x
    double slope = 0.0;     ///< b in y = a + b*x
};

/**
 * Target machines per tile of the scan, the unit sharded over the
 * thread pool. 256 targets x 28 benchmarks of doubles is ~56 KB — two
 * tiles (gather buffer + written results) stay L2-resident per worker.
 */
inline constexpr std::size_t kScanTargetTile = 256;

/**
 * Each column of `scores` (one per machine), in log2 space when
 * `logSpace` is set.
 */
inline std::vector<std::vector<double>>
machineColumns(const linalg::Matrix &scores, bool logSpace)
{
    std::vector<std::vector<double>> cols(scores.cols());
    for (std::size_t m = 0; m < cols.size(); ++m) {
        cols[m] = scores.column(m);
        if (logSpace)
            for (double &v : cols[m])
                v = std::log2(v);
    }
    return cols;
}

namespace detail
{

/**
 * A pair of doubles (a GCC/Clang vector extension): the SSE2 register
 * every x86-64 build has, a NEON register on AArch64. The compiler
 * maps each elementwise operation onto it without reassociating, so
 * every lane keeps the exact IEEE operation sequence written for it.
 */
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

/**
 * Pairs per lane block: 8 targets, four independent register chains
 * per accumulator — enough to hide the add latency. Wider vectors
 * would make the 3-target scans of Table 2 waste most of every block.
 */
inline constexpr std::size_t kPairs = 4;
inline constexpr std::size_t kLanes = 2 * kPairs;

} // namespace detail

/**
 * Fits every target column of `targetScores` (benchmarks x targets,
 * row-major; log2'd here when `logSpace` is set) against every column
 * of `predCols` (already in the fitting space), and calls
 * `visit(t, p, fit)` with each fit: per target, predictors in
 * ascending order. Targets are processed in tiles of kScanTargetTile
 * sharded over `threads` workers (1 = serial, 0 = hardware
 * concurrency), so `visit` runs concurrently for different targets
 * and must only write state owned by its target; the thread count
 * cannot change a bit of what it sees.
 *
 * Target-major: kLanes targets at a time are vector lanes gathered
 * from contiguous entries of each benchmark row, and every per-target
 * accumulator (mean, ss_tot, sxy, slope/intercept, rss) is a lane.
 * Hoisting a per-predictor statistic (mean, centered sum of squares)
 * out of the target loop only splits SimpleLinearRegression's
 * interleaved loop into independent per-accumulator loops, and each
 * lane keeps its own accumulator, so every fit's operation sequence —
 * and therefore its rounding — is unchanged: each fit equals a
 * per-pair SimpleLinearRegression bit for bit. The lane count is a
 * compile-time constant, so the lane loops compile to straight
 * register code: Table 2's scans are only 3-21 targets wide, where a
 * runtime-width loop's prologue and alias checks cost more than it
 * saves. `visit` is a template parameter so that it inlines into the
 * lane loop (a cold rank over 20k targets makes 20k x P calls).
 */
template <typename Visit>
void
scanLineFits(const std::vector<std::vector<double>> &predCols,
             const linalg::Matrix &targetScores, bool logSpace,
             std::size_t threads, const Visit &visit)
{
    using detail::kLanes;
    using detail::kPairs;
    using detail::Pair;
    const std::size_t n_bench = targetScores.rows();
    const std::size_t n_target = targetScores.cols();
    const std::size_t n_pred = predCols.size();

    std::vector<double> pred_mean(n_pred, 0.0);
    std::vector<double> pred_sxx(n_pred, 0.0);
    for (std::size_t p = 0; p < n_pred; ++p) {
        const double *x = predCols[p].data();
        const double mx = stats::mean(predCols[p]);
        double sxx = 0.0;
        for (std::size_t i = 0; i < n_bench; ++i) {
            const double dx = x[i] - mx;
            // Benchmark-ascending, as SimpleLinearRegression sums it:
            // dtrank-analyze-ignore(no-fp-accumulate)
            sxx += dx * dx;
        }
        pred_mean[p] = mx;
        pred_sxx[p] = sxx;
    }

    const double count = static_cast<double>(n_bench);
    const std::size_t n_tiles =
        (n_target + kScanTargetTile - 1) / kScanTargetTile;
    util::parallelFor(threads, n_tiles, [&](std::size_t ti) {
        const std::size_t t0 = ti * kScanTargetTile;
        const std::size_t t1 = std::min(n_target, t0 + kScanTargetTile);

        // Lane-block scratch, kPairs pairs per benchmark: y gathered
        // from the score matrix's rows, and y - mean(y). L1-resident;
        // lanes past the tile's end repeat its last target and are
        // never visited.
        std::vector<Pair> block(2 * n_bench * kPairs);
        Pair *y = block.data();
        Pair *dy = y + n_bench * kPairs;

        for (std::size_t l0 = t0; l0 < t1; l0 += kLanes) {
            const std::size_t lanes = std::min(kLanes, t1 - l0);
            for (std::size_t b = 0; b < n_bench; ++b) {
                const double *src = targetScores.rowData(b) + l0;
                for (std::size_t l = 0; l < kLanes; ++l) {
                    const double v = src[std::min(l, lanes - 1)];
                    y[b * kPairs + l / 2][l % 2] =
                        logSpace ? std::log2(v) : v;
                }
            }

            Pair my[kPairs] = {};
            for (std::size_t b = 0; b < n_bench; ++b)
                for (std::size_t q = 0; q < kPairs; ++q)
                    my[q] += y[b * kPairs + q];
            for (Pair &m : my)
                m /= count;
            Pair ss_tot[kPairs] = {};
            for (std::size_t b = 0; b < n_bench; ++b)
                for (std::size_t q = 0; q < kPairs; ++q) {
                    const Pair d = y[b * kPairs + q] - my[q];
                    dy[b * kPairs + q] = d;
                    ss_tot[q] += d * d;
                }

            for (std::size_t p = 0; p < n_pred; ++p) {
                const double *x = predCols[p].data();
                const double mx = pred_mean[p];
                const double sxx = pred_sxx[p];

                Pair sxy[kPairs] = {};
                for (std::size_t b = 0; b < n_bench; ++b) {
                    const double dx = x[b] - mx;
                    for (std::size_t q = 0; q < kPairs; ++q)
                        sxy[q] += dx * dy[b * kPairs + q];
                }

                Pair slope[kPairs] = {};
                Pair intercept[kPairs];
                for (std::size_t q = 0; q < kPairs; ++q) {
                    intercept[q] = my[q];
                    if (sxx != 0.0) {
                        slope[q] = sxy[q] / sxx;
                        intercept[q] = my[q] - slope[q] * mx;
                    }
                }

                Pair rss[kPairs] = {};
                for (std::size_t b = 0; b < n_bench; ++b)
                    for (std::size_t q = 0; q < kPairs; ++q) {
                        const Pair r = y[b * kPairs + q] -
                                       (intercept[q] + slope[q] * x[b]);
                        rss[q] += r * r;
                    }

                for (std::size_t l = 0; l < lanes; ++l) {
                    LineFit fit;
                    fit.rss = rss[l / 2][l % 2];
                    const double lane_ss = ss_tot[l / 2][l % 2];
                    if (lane_ss == 0.0)
                        fit.rSquared = fit.rss == 0.0 ? 1.0 : 0.0;
                    else
                        fit.rSquared = 1.0 - fit.rss / lane_ss;
                    fit.intercept = intercept[l / 2][l % 2];
                    fit.slope = slope[l / 2][l % 2];
                    visit(l0 + l, p, fit);
                }
            }
        }
    });
}

} // namespace dtrank::core
