/**
 * @file
 * Unit tests for the NN^T predictor (best-fit linear regression
 * transposition).
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/linear_transposition.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

/**
 * Builds a problem where the target machine is an exact affine map of
 * predictive machine 1 (and unrelated to machine 0): y = 2x + 3.
 */
core::TranspositionProblem
affineProblem()
{
    core::TranspositionProblem p;
    // Benchmarks x predictive machines. Machine 0 is noise-like,
    // machine 1 is the informative proxy.
    p.predictiveBenchScores = linalg::Matrix{
        {9, 1}, {1, 2}, {8, 3}, {2, 4}, {7, 5}, {3, 6}};
    // App of interest score on each predictive machine.
    p.predictiveAppScores = {4.0, 10.0};
    // One target machine: y = 2 * machine1 + 3 over the benchmarks.
    p.targetBenchScores = linalg::Matrix(6, 1);
    for (std::size_t b = 0; b < 6; ++b)
        p.targetBenchScores(b, 0) =
            2.0 * p.predictiveBenchScores(b, 1) + 3.0;
    return p;
}

TEST(LinearTransposition, PicksTheBestFittingMachine)
{
    auto problem = affineProblem();
    core::LinearTransposition predictor;
    const auto pred = predictor.predict(problem);
    ASSERT_EQ(pred.size(), 1u);
    // Perfect proxy: prediction = 2 * 10 + 3.
    EXPECT_NEAR(pred[0], 23.0, 1e-9);
    EXPECT_EQ(predictor.diagnostics().chosenPredictive[0], 1u);
    EXPECT_NEAR(predictor.diagnostics().fitRSquared[0], 1.0, 1e-12);
    EXPECT_NEAR(predictor.diagnostics().slope[0], 2.0, 1e-9);
    EXPECT_NEAR(predictor.diagnostics().intercept[0], 3.0, 1e-9);
}

TEST(LinearTransposition, EachTargetGetsItsOwnProxy)
{
    core::TranspositionProblem p;
    p.predictiveBenchScores =
        linalg::Matrix{{1, 9}, {2, 4}, {3, 8}, {4, 2}, {5, 7}};
    p.predictiveAppScores = {6.0, 5.0};
    // Target 0 follows machine 0; target 1 follows machine 1.
    p.targetBenchScores = linalg::Matrix(5, 2);
    for (std::size_t b = 0; b < 5; ++b) {
        p.targetBenchScores(b, 0) =
            3.0 * p.predictiveBenchScores(b, 0) + 1.0;
        p.targetBenchScores(b, 1) =
            0.5 * p.predictiveBenchScores(b, 1) + 2.0;
    }
    core::LinearTransposition predictor;
    const auto pred = predictor.predict(p);
    EXPECT_EQ(predictor.diagnostics().chosenPredictive[0], 0u);
    EXPECT_EQ(predictor.diagnostics().chosenPredictive[1], 1u);
    EXPECT_NEAR(pred[0], 3.0 * 6.0 + 1.0, 1e-9);
    EXPECT_NEAR(pred[1], 0.5 * 5.0 + 2.0, 1e-9);
}

TEST(LinearTransposition, LogSpaceRecoversPowerLaws)
{
    // y = x^2 in raw space is exactly linear in log space.
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix(5, 1);
    p.targetBenchScores = linalg::Matrix(5, 1);
    for (std::size_t b = 0; b < 5; ++b) {
        const double x = static_cast<double>(b + 1);
        p.predictiveBenchScores(b, 0) = x;
        p.targetBenchScores(b, 0) = x * x;
    }
    p.predictiveAppScores = {7.0};

    core::LinearTranspositionConfig config;
    config.logSpace = true;
    core::LinearTransposition predictor(config);
    const auto pred = predictor.predict(p);
    EXPECT_NEAR(pred[0], 49.0, 1e-6);
}

TEST(LinearTransposition, RSquaredCriterionAgreesOnCleanData)
{
    auto problem = affineProblem();
    core::LinearTranspositionConfig config;
    config.criterion = core::FitCriterion::RSquared;
    core::LinearTransposition predictor(config);
    const auto pred = predictor.predict(problem);
    EXPECT_NEAR(pred[0], 23.0, 1e-9);
}

TEST(LinearTransposition, HandsOffOnTooFewBenchmarks)
{
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix{{1.0}};
    p.predictiveAppScores = {1.0};
    p.targetBenchScores = linalg::Matrix{{1.0}};
    core::LinearTransposition predictor;
    EXPECT_THROW(predictor.predict(p), util::InvalidArgument);
}

TEST(LinearTransposition, DeterministicAcrossCalls)
{
    auto problem = affineProblem();
    core::LinearTransposition predictor;
    const auto a = predictor.predict(problem);
    const auto b = predictor.predict(problem);
    EXPECT_EQ(a, b);
}

/** Random positive problem of the given size. */
core::TranspositionProblem
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

/** Predicts with the given scan mode and returns all outputs. */
std::pair<std::vector<double>, core::LinearTranspositionDiagnostics>
runScan(const core::TranspositionProblem &problem, core::ScanMode scan,
        std::size_t tile, std::size_t threads, bool log_space = false,
        core::FitCriterion criterion =
            core::FitCriterion::ResidualSumSquares)
{
    core::LinearTranspositionConfig config;
    config.criterion = criterion;
    config.scan = scan;
    config.targetTile = tile;
    config.threads = threads;
    config.logSpace = log_space;
    core::LinearTransposition predictor(config);
    auto pred = predictor.predict(problem);
    return {std::move(pred), predictor.diagnostics()};
}

TEST(LinearTransposition, TiledScanMatchesNaiveBitForBit)
{
    const auto problem = randomProblem(28, 7, 301, 17);
    const auto [naive_pred, naive_diag] =
        runScan(problem, core::ScanMode::Naive, 256, 1);
    for (const std::size_t tile : {1u, 3u, 64u, 256u, 1024u}) {
        const auto [tiled_pred, tiled_diag] =
            runScan(problem, core::ScanMode::Tiled, tile, 1);
        EXPECT_EQ(naive_pred, tiled_pred) << "tile " << tile;
        EXPECT_EQ(naive_diag.chosenPredictive,
                  tiled_diag.chosenPredictive);
        EXPECT_EQ(naive_diag.fitRSquared, tiled_diag.fitRSquared);
        EXPECT_EQ(naive_diag.slope, tiled_diag.slope);
        EXPECT_EQ(naive_diag.intercept, tiled_diag.intercept);
    }
}

TEST(LinearTransposition, TiledScanMatchesNaiveInLogSpace)
{
    const auto problem = randomProblem(20, 5, 97, 23);
    const auto [naive_pred, naive_diag] =
        runScan(problem, core::ScanMode::Naive, 256, 1, true);
    const auto [tiled_pred, tiled_diag] =
        runScan(problem, core::ScanMode::Tiled, 32, 1, true);
    EXPECT_EQ(naive_pred, tiled_pred);
    EXPECT_EQ(naive_diag.chosenPredictive, tiled_diag.chosenPredictive);
}

/**
 * The naive per-pair oracle against the target-major tiled scan over
 * the shapes that stress its lane blocks (1 and 3 targets fill part of
 * one block, 255/257 straddle the 256-target tile, 5000 spans many
 * tiles), a lone predictor up to Table 2's ~100, both criteria, log
 * space on and off, serial and pooled. Every problem with more than
 * one machine on a side carries a constant predictive column
 * (sxx == 0: slope 0, intercept mean(y)) and a constant target column
 * (ss_tot == 0: R² from the rss == 0 rule). The constant predictor is
 * machine 0, so the constant target — which every predictor fits
 * exactly — picks it and reports its sxx == 0 intercept.
 */
TEST(LinearTransposition, TiledScanMatchesNaiveAcrossShapesAndModes)
{
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
            for (const auto criterion :
                 {core::FitCriterion::ResidualSumSquares,
                  core::FitCriterion::RSquared}) {
                for (const bool log_space : {false, true}) {
                    SCOPED_TRACE(
                        "targets=" + std::to_string(targets) +
                        " preds=" + std::to_string(preds) + " r2=" +
                        std::to_string(criterion ==
                                       core::FitCriterion::RSquared) +
                        " log=" + std::to_string(log_space));
                    const auto [naive_pred, naive_diag] =
                        runScan(problem, core::ScanMode::Naive, 256, 1,
                                log_space, criterion);
                    for (const std::size_t threads : {1u, 4u}) {
                        const auto [tiled_pred, tiled_diag] =
                            runScan(problem, core::ScanMode::Tiled, 256,
                                    threads, log_space, criterion);
                        EXPECT_EQ(naive_pred, tiled_pred);
                        EXPECT_EQ(naive_diag.chosenPredictive,
                                  tiled_diag.chosenPredictive);
                        EXPECT_EQ(naive_diag.fitRSquared,
                                  tiled_diag.fitRSquared);
                        EXPECT_EQ(naive_diag.slope, tiled_diag.slope);
                        EXPECT_EQ(naive_diag.intercept,
                                  tiled_diag.intercept);
                    }
                }
            }
        }
    }
}

TEST(LinearTransposition, ScaledScanThreadCountCannotChangeOutput)
{
    const auto problem = randomProblem(28, 9, 513, 29);
    const auto [serial_pred, serial_diag] =
        runScan(problem, core::ScanMode::Tiled, 64, 1);
    for (const std::size_t threads : {2u, 4u, 0u}) {
        const auto [par_pred, par_diag] =
            runScan(problem, core::ScanMode::Tiled, 64, threads);
        EXPECT_EQ(serial_pred, par_pred) << "threads " << threads;
        EXPECT_EQ(serial_diag.chosenPredictive,
                  par_diag.chosenPredictive);
        EXPECT_EQ(serial_diag.fitRSquared, par_diag.fitRSquared);
    }
}

TEST(LinearTransposition, RobustToNoisyProxies)
{
    // With noise, the closest proxy still wins and the prediction
    // stays near the true value.
    util::Rng rng(5);
    core::TranspositionProblem p;
    const std::size_t n = 28;
    p.predictiveBenchScores = linalg::Matrix(n, 3);
    p.targetBenchScores = linalg::Matrix(n, 1);
    for (std::size_t b = 0; b < n; ++b) {
        const double base = rng.uniform(5.0, 50.0);
        p.predictiveBenchScores(b, 0) = rng.uniform(5.0, 50.0);
        p.predictiveBenchScores(b, 1) = base;
        p.predictiveBenchScores(b, 2) = rng.uniform(5.0, 50.0);
        p.targetBenchScores(b, 0) =
            1.5 * base + rng.gaussian(0.0, 0.5);
    }
    p.predictiveAppScores = {20.0, 30.0, 25.0};
    core::LinearTransposition predictor;
    const auto pred = predictor.predict(p);
    EXPECT_EQ(predictor.diagnostics().chosenPredictive[0], 1u);
    EXPECT_NEAR(pred[0], 45.0, 2.0);
}

} // namespace
