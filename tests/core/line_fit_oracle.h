/**
 * @file
 * The per-pair reference for NN^T and kNN^T: one
 * stats::SimpleLinearRegression per (target, predictive machine) pair,
 * each recomputing its means and sums from scratch, and the two
 * methods' selection and prediction written out plainly on top of it.
 * The production scan (core/line_scan.h) must match it bit for bit.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/linear_transposition.h"
#include "core/multi_transposition.h"
#include "core/transposition.h"
#include "linalg/matrix.h"
#include "simd/simd.h"
#include "stats/regression.h"
#include "util/rng.h"

namespace dtrank::oracle
{

/** Random positive problem of the given size. */
inline core::TranspositionProblem
randomProblem(std::size_t benchmarks, std::size_t predictive,
              std::size_t targets, std::uint64_t seed)
{
    util::Rng rng(seed);
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix(benchmarks, predictive);
    p.targetBenchScores = linalg::Matrix(benchmarks, targets);
    for (std::size_t b = 0; b < benchmarks; ++b) {
        for (std::size_t m = 0; m < predictive; ++m)
            p.predictiveBenchScores(b, m) = rng.uniform(1.0, 60.0);
        for (std::size_t t = 0; t < targets; ++t)
            p.targetBenchScores(b, t) = rng.uniform(1.0, 60.0);
    }
    for (std::size_t m = 0; m < predictive; ++m)
        p.predictiveAppScores.push_back(rng.uniform(1.0, 60.0));
    return p;
}

/**
 * Random problems over the shapes that stress the scan's lane blocks
 * (1 and 3 targets fill part of one block, 255/257 straddle the
 * 256-target tile, 5000 spans many tiles) and a lone predictor up to
 * Table 2's ~100. Every problem with more than one machine on a side
 * carries a constant predictive column (sxx == 0: slope 0, intercept
 * mean(y)) and a constant target column (ss_tot == 0: R² from the
 * rss == 0 rule). The constant predictor is machine 0, so the constant
 * target — which every predictor fits exactly — picks it and reports
 * its sxx == 0 intercept.
 */
inline std::vector<core::TranspositionProblem>
shapeGrid()
{
    std::vector<core::TranspositionProblem> problems;
    for (const std::size_t targets : {1u, 3u, 21u, 255u, 257u, 5000u}) {
        for (const std::size_t preds : {1u, 10u, 100u}) {
            auto problem = randomProblem(28, preds, targets,
                                         41 + targets * 7 + preds);
            for (std::size_t b = 0; b < 28; ++b) {
                if (preds > 1)
                    problem.predictiveBenchScores(b, 0) = 7.0;
                if (targets > 1)
                    problem.targetBenchScores(b, targets / 2) = 13.0;
            }
            problems.push_back(std::move(problem));
        }
    }
    return problems;
}

/** Names a grid problem for SCOPED_TRACE. */
inline std::string
shapeName(const core::TranspositionProblem &problem)
{
    return "targets=" + std::to_string(problem.targetMachineCount()) +
           " preds=" + std::to_string(problem.predictiveMachineCount());
}

/** Column c of `scores`, log2'd when `logSpace` is set. */
inline std::vector<double>
fitColumn(const linalg::Matrix &scores, std::size_t c, bool logSpace)
{
    std::vector<double> v = scores.column(c);
    if (logSpace)
        for (double &x : v)
            x = std::log2(x);
    return v;
}

/** fits[t][p]: target t's line fit against predictive machine p. */
inline std::vector<std::vector<stats::SimpleLinearRegression>>
pairFits(const core::TranspositionProblem &problem, bool logSpace)
{
    std::vector<std::vector<double>> x;
    for (std::size_t p = 0; p < problem.predictiveMachineCount(); ++p)
        x.push_back(fitColumn(problem.predictiveBenchScores, p, logSpace));
    std::vector<std::vector<stats::SimpleLinearRegression>> fits(
        problem.targetMachineCount());
    for (std::size_t t = 0; t < fits.size(); ++t) {
        const std::vector<double> y =
            fitColumn(problem.targetBenchScores, t, logSpace);
        for (const std::vector<double> &xp : x)
            fits[t].emplace_back(xp, y);
    }
    return fits;
}

/** NN^T's outputs: predictions and every diagnostics vector. */
struct NnResult
{
    std::vector<double> predictions;
    core::LinearTranspositionDiagnostics diagnostics;
};

/** NN^T on a dense problem: the first lowest-RSS fit per target. */
inline NnResult
nnOracle(const core::TranspositionProblem &problem,
         const core::LinearTranspositionConfig &config)
{
    const auto fits = pairFits(problem, config.logSpace);
    NnResult out;
    core::LinearTranspositionDiagnostics &diag = out.diagnostics;
    for (const auto &row : fits) {
        double best_rss = std::numeric_limits<double>::infinity();
        std::size_t best_p = 0;
        for (std::size_t p = 0; p < row.size(); ++p) {
            if (row[p].residualSumSquares() < best_rss) {
                best_rss = row[p].residualSumSquares();
                best_p = p;
            }
        }
        const stats::SimpleLinearRegression &fit = row[best_p];
        double app_x = problem.predictiveAppScores[best_p];
        if (config.logSpace)
            app_x = std::log2(app_x);
        const double y = fit.intercept() + fit.slope() * app_x;
        out.predictions.push_back(config.logSpace ? std::exp2(y) : y);
        diag.chosenPredictive.push_back(best_p);
        diag.fitRSquared.push_back(fit.rSquared());
        diag.intercept.push_back(fit.intercept());
        diag.slope.push_back(fit.slope());
    }
    return out;
}

/** kNN^T's outputs: predictions and both diagnostics vectors. */
struct KnnResult
{
    std::vector<double> predictions;
    core::MultiTranspositionDiagnostics diagnostics;
};

/**
 * kNN^T on a dense problem, in linear space: per target, the k lowest
 * single-proxy RSS (ties by index) as the regressors of one ridge
 * regression with kNN^T's penalty, 1e-6.
 */
inline KnnResult
knnOracle(const core::TranspositionProblem &problem,
          const core::MultiTranspositionConfig &config)
{
    const auto fits = pairFits(problem, false);
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t k = std::min(config.proxies, n_pred);
    KnnResult out;
    for (std::size_t t = 0; t < fits.size(); ++t) {
        std::vector<std::size_t> order(n_pred);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double ra = fits[t][a].residualSumSquares();
                      const double rb = fits[t][b].residualSumSquares();
                      return ra != rb ? ra < rb : a < b;
                  });
        order.resize(k);

        linalg::Matrix design(problem.benchmarkCount(), k);
        std::vector<double> app(k);
        for (std::size_t j = 0; j < k; ++j) {
            design.setColumn(j, problem.predictiveBenchScores.column(order[j]));
            app[j] = problem.predictiveAppScores[order[j]];
        }
        const stats::MultipleLinearRegression fit(
            design, problem.targetBenchScores.column(t), 1e-6);
        double pred = fit.predict(app);
        if (pred <= 0.0)
            pred = 1e-6;
        out.predictions.push_back(pred);
        out.diagnostics.chosenProxies.push_back(order);
        out.diagnostics.fitRSquared.push_back(fit.rSquared());
    }
    return out;
}

/** Tiers this build and CPU can dispatch. */
inline std::vector<simd::Tier>
availableTiers()
{
    std::vector<simd::Tier> tiers = {simd::Tier::Scalar};
    for (const simd::Tier tier : {simd::Tier::Avx2, simd::Tier::Avx512})
        if (simd::tierAvailable(tier))
            tiers.push_back(tier);
    return tiers;
}

/** Restores the active SIMD tier on scope exit. */
class TierGuard
{
  public:
    TierGuard() : saved_(simd::activeTier()) {}
    ~TierGuard() { simd::setTier(saved_); }
    TierGuard(const TierGuard &) = delete;
    TierGuard &operator=(const TierGuard &) = delete;

  private:
    simd::Tier saved_;
};

} // namespace dtrank::oracle
