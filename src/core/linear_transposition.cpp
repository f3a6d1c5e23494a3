#include "core/linear_transposition.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.h"
#include "stats/regression.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dtrank::core
{

namespace
{

/**
 * A pair of doubles (a GCC/Clang vector extension): the SSE2 register
 * every x86-64 build has, a NEON register on AArch64. The compiler
 * maps each elementwise operation onto it without reassociating, so
 * every lane keeps the exact IEEE operation sequence written for it.
 */
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

/**
 * Pairs per lane block of the tiled scan: 8 targets, four independent
 * register chains per accumulator — enough to hide the add latency.
 * Wider vectors would make the 3-target scans of Table 2 waste most
 * of every block.
 */
constexpr std::size_t kPairs = 4;
constexpr std::size_t kLanes = 2 * kPairs;

/** Same arithmetic as stats::mean (sequential sum, one divide). */
double
meanOf(const double *v, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += v[i];
    return acc / static_cast<double>(n);
}

} // namespace

LinearTransposition::LinearTransposition(LinearTranspositionConfig config)
    : config_(config)
{
    util::require(config_.targetTile >= 1,
                  "LinearTransposition: targetTile must be >= 1");
}

std::vector<double>
LinearTransposition::predict(const TranspositionProblem &problem)
{
    problem.validate();
    if (problem.masked())
        return predictMasked(problem);
    const std::size_t n_bench = problem.benchmarkCount();
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t n_target = problem.targetMachineCount();
    util::require(n_bench >= 2,
                  "LinearTransposition: needs >= 2 training benchmarks");

    auto maybe_log = [&](double v) {
        return config_.logSpace ? std::log2(v) : v;
    };
    auto maybe_exp = [&](double v) {
        return config_.logSpace ? std::exp2(v) : v;
    };

    // Pre-extract predictive machine columns (x vectors).
    std::vector<std::vector<double>> pred_cols(n_pred);
    for (std::size_t p = 0; p < n_pred; ++p) {
        pred_cols[p] = problem.predictiveBenchScores.column(p);
        if (config_.logSpace)
            for (double &v : pred_cols[p])
                v = std::log2(v);
    }

    diagnostics_ = LinearTranspositionDiagnostics{};
    diagnostics_.chosenPredictive.assign(n_target, 0);
    diagnostics_.fitRSquared.assign(n_target, 0.0);
    diagnostics_.intercept.assign(n_target, 0.0);
    diagnostics_.slope.assign(n_target, 0.0);

    std::vector<double> predictions(n_target, 0.0);

    if (config_.scan == ScanMode::Naive) {
        for (std::size_t t = 0; t < n_target; ++t) {
            std::vector<double> y = problem.targetBenchScores.column(t);
            if (config_.logSpace)
                for (double &v : y)
                    v = std::log2(v);

            double best_score = std::numeric_limits<double>::infinity();
            std::size_t best_p = 0;
            double best_intercept = 0.0;
            double best_slope = 0.0;
            double best_r2 = 0.0;

            for (std::size_t p = 0; p < n_pred; ++p) {
                const stats::SimpleLinearRegression fit(pred_cols[p], y);
                // Both criteria are expressed as "smaller is better".
                const double score =
                    config_.criterion == FitCriterion::ResidualSumSquares
                        ? fit.residualSumSquares()
                        : -fit.rSquared();
                if (score < best_score) {
                    best_score = score;
                    best_p = p;
                    best_intercept = fit.intercept();
                    best_slope = fit.slope();
                    best_r2 = fit.rSquared();
                }
            }

            const double app_x =
                maybe_log(problem.predictiveAppScores[best_p]);
            predictions[t] = maybe_exp(best_intercept + best_slope * app_x);

            diagnostics_.chosenPredictive[t] = best_p;
            diagnostics_.fitRSquared[t] = best_r2;
            diagnostics_.intercept[t] = best_intercept;
            diagnostics_.slope[t] = best_slope;
        }
        return predictions;
    }

    // Tiled scan, target-major. Every accumulator below reproduces the
    // exact sequential arithmetic of SimpleLinearRegression: hoisting a
    // per-x (or per-y) statistic out of the pair loop only splits an
    // interleaved loop into independent per-accumulator loops, and
    // running kLanes targets side by side gives each its own
    // accumulator (a lane), so every target's operation sequence — and
    // therefore its rounding — is unchanged. The lane count is a
    // compile-time constant, so the lane loops compile to straight
    // register code: Table 2's scans are only 3-21 targets wide, where
    // a runtime-width loop's prologue and alias checks cost more than
    // it saves.
    std::vector<double> pred_mean(n_pred, 0.0);
    std::vector<double> pred_sxx(n_pred, 0.0);
    for (std::size_t p = 0; p < n_pred; ++p) {
        const double *x = pred_cols[p].data();
        const double mx = meanOf(x, n_bench);
        double sxx = 0.0;
        for (std::size_t i = 0; i < n_bench; ++i) {
            const double dx = x[i] - mx;
            sxx += dx * dx;
        }
        pred_mean[p] = mx;
        pred_sxx[p] = sxx;
    }

    const bool by_rss =
        config_.criterion == FitCriterion::ResidualSumSquares;
    const double count = static_cast<double>(n_bench);
    const std::size_t tile = config_.targetTile;
    const std::size_t n_tiles = (n_target + tile - 1) / tile;
    util::parallelFor(config_.threads, n_tiles, [&](std::size_t ti) {
        const std::size_t t0 = ti * tile;
        const std::size_t t1 = std::min(n_target, t0 + tile);

        // Lane-block scratch, kPairs pairs per benchmark: y gathered
        // from the score matrix's rows, and y - mean(y). L1-resident;
        // lanes past the tile's end repeat its last target and are
        // never written out.
        std::vector<Pair> block(2 * n_bench * kPairs);
        Pair *y = block.data();
        Pair *dy = y + n_bench * kPairs;

        for (std::size_t l0 = t0; l0 < t1; l0 += kLanes) {
            const std::size_t lanes = std::min(kLanes, t1 - l0);
            for (std::size_t b = 0; b < n_bench; ++b) {
                const double *src =
                    problem.targetBenchScores.rowData(b) + l0;
                for (std::size_t l = 0; l < kLanes; ++l)
                    y[b * kPairs + l / 2][l % 2] =
                        maybe_log(src[std::min(l, lanes - 1)]);
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

            double best_score[kLanes];
            std::fill_n(best_score, kLanes,
                        std::numeric_limits<double>::infinity());
            std::size_t best_p[kLanes] = {};
            double best_intercept[kLanes] = {};
            double best_slope[kLanes] = {};
            double best_r2[kLanes] = {};

            for (std::size_t p = 0; p < n_pred; ++p) {
                const double *x = pred_cols[p].data();
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

                for (std::size_t l = 0; l < kLanes; ++l) {
                    const double lane_rss = rss[l / 2][l % 2];
                    const double lane_ss = ss_tot[l / 2][l % 2];
                    double r2;
                    if (lane_ss == 0.0)
                        r2 = lane_rss == 0.0 ? 1.0 : 0.0;
                    else
                        r2 = 1.0 - lane_rss / lane_ss;
                    // Both criteria are "smaller is better".
                    const double score = by_rss ? lane_rss : -r2;
                    if (score < best_score[l]) {
                        best_score[l] = score;
                        best_p[l] = p;
                        best_intercept[l] = intercept[l / 2][l % 2];
                        best_slope[l] = slope[l / 2][l % 2];
                        best_r2[l] = r2;
                    }
                }
            }

            for (std::size_t l = 0; l < lanes; ++l) {
                const std::size_t t = l0 + l;
                const double app_x =
                    maybe_log(problem.predictiveAppScores[best_p[l]]);
                predictions[t] =
                    maybe_exp(best_intercept[l] + best_slope[l] * app_x);
                diagnostics_.chosenPredictive[t] = best_p[l];
                diagnostics_.fitRSquared[t] = best_r2[l];
                diagnostics_.intercept[t] = best_intercept[l];
                diagnostics_.slope[t] = best_slope[l];
            }
        }
    });
    return predictions;
}

std::vector<double>
LinearTransposition::predictMasked(const TranspositionProblem &problem)
{
    const std::size_t n_bench = problem.benchmarkCount();
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t n_target = problem.targetMachineCount();
    util::require(n_bench >= 2,
                  "LinearTransposition: needs >= 2 training benchmarks");

    auto maybe_log = [&](double v) {
        return config_.logSpace ? std::log2(v) : v;
    };
    auto maybe_exp = [&](double v) {
        return config_.logSpace ? std::exp2(v) : v;
    };

    // Invalid cells hold NaN poison; log2(NaN) is NaN and the
    // compaction below never copies those slots out.
    std::vector<std::vector<double>> pred_cols(n_pred);
    for (std::size_t p = 0; p < n_pred; ++p) {
        pred_cols[p] = problem.predictiveBenchScores.column(p);
        if (config_.logSpace)
            for (double &v : pred_cols[p])
                v = std::log2(v);
    }

    diagnostics_ = LinearTranspositionDiagnostics{};
    diagnostics_.chosenPredictive.assign(n_target, 0);
    diagnostics_.fitRSquared.assign(n_target, 0.0);
    diagnostics_.intercept.assign(n_target, 0.0);
    diagnostics_.slope.assign(n_target, 0.0);

    std::vector<double> predictions(n_target, 0.0);

    // Targets are independent, so sharding tiles over the pool cannot
    // change a bit of the output (same guarantee as the dense scan).
    const std::size_t tile = config_.targetTile;
    const std::size_t n_tiles = (n_target + tile - 1) / tile;
    util::parallelFor(config_.threads, n_tiles, [&](std::size_t ti) {
        const std::size_t t0 = ti * tile;
        const std::size_t t1 = std::min(n_target, t0 + tile);

        std::vector<double> xs;
        std::vector<double> ys;
        xs.reserve(n_bench);
        ys.reserve(n_bench);

        for (std::size_t t = t0; t < t1; ++t) {
            std::vector<double> y = problem.targetBenchScores.column(t);
            if (config_.logSpace)
                for (double &v : y)
                    v = std::log2(v);

            double best_score = std::numeric_limits<double>::infinity();
            bool found = false;
            std::size_t best_p = 0;
            double best_intercept = 0.0;
            double best_slope = 0.0;
            double best_r2 = 0.0;

            for (std::size_t p = 0; p < n_pred; ++p) {
                // A candidate needs its own app score and at least two
                // jointly observed benchmarks to fit a line.
                if (!problem.appScoreValid(p))
                    continue;
                xs.clear();
                ys.clear();
                for (std::size_t b = 0; b < n_bench; ++b)
                    if (problem.predictiveMask.valid(b, p) &&
                        problem.targetMask.valid(b, t)) {
                        xs.push_back(pred_cols[p][b]);
                        ys.push_back(y[b]);
                    }
                if (xs.size() < 2)
                    continue;
                const stats::SimpleLinearRegression fit(xs, ys);
                const double score =
                    config_.criterion == FitCriterion::ResidualSumSquares
                        ? fit.residualSumSquares()
                        : -fit.rSquared();
                if (score < best_score) {
                    found = true;
                    best_score = score;
                    best_p = p;
                    best_intercept = fit.intercept();
                    best_slope = fit.slope();
                    best_r2 = fit.rSquared();
                }
            }

            if (found) {
                const double app_x =
                    maybe_log(problem.predictiveAppScores[best_p]);
                predictions[t] =
                    maybe_exp(best_intercept + best_slope * app_x);
                diagnostics_.chosenPredictive[t] = best_p;
                diagnostics_.fitRSquared[t] = best_r2;
                diagnostics_.intercept[t] = best_intercept;
                diagnostics_.slope[t] = best_slope;
            } else {
                // No admissible candidate: fall back to the observed
                // mean of the target column (a constant model), or 1.0
                // when the column has nothing observed at all.
                ys.clear();
                for (std::size_t b = 0; b < n_bench; ++b)
                    if (problem.targetMask.valid(b, t))
                        ys.push_back(y[b]);
                const double mean_y =
                    ys.empty() ? 0.0 : stats::mean(ys);
                predictions[t] = ys.empty() ? 1.0 : maybe_exp(mean_y);
                diagnostics_.intercept[t] = mean_y;
            }
        }
    });
    return predictions;
}

} // namespace dtrank::core
