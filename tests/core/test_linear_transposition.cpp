/**
 * @file
 * Unit tests for the NN^T predictor (best-fit linear regression
 * transposition).
 */

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/line_scan.h"
#include "core/linear_transposition.h"
#include "line_fit_oracle.h"
#include "simd/simd.h"
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

/** Predicts with the given configuration and returns all outputs. */
oracle::NnResult
runScan(const core::TranspositionProblem &problem, std::size_t threads,
        bool log_space = false)
{
    core::LinearTranspositionConfig config;
    config.threads = threads;
    config.logSpace = log_space;
    core::LinearTransposition predictor(config);
    auto pred = predictor.predict(problem);
    return {std::move(pred), predictor.diagnostics()};
}

/** The per-pair oracle for the configuration runScan would build. */
oracle::NnResult
runOracle(const core::TranspositionProblem &problem, bool log_space = false)
{
    core::LinearTranspositionConfig config;
    config.logSpace = log_space;
    return oracle::nnOracle(problem, config);
}

/** Predictions and all four diagnostics vectors, bit for bit. */
void
expectSameOutputs(const oracle::NnResult &expected,
                  const oracle::NnResult &actual)
{
    EXPECT_EQ(expected.predictions, actual.predictions);
    EXPECT_EQ(expected.diagnostics.chosenPredictive,
              actual.diagnostics.chosenPredictive);
    EXPECT_EQ(expected.diagnostics.fitRSquared,
              actual.diagnostics.fitRSquared);
    EXPECT_EQ(expected.diagnostics.slope, actual.diagnostics.slope);
    EXPECT_EQ(expected.diagnostics.intercept,
              actual.diagnostics.intercept);
}

TEST(LinearTransposition, TiledScanMatchesNaiveBitForBit)
{
    const auto problem = oracle::randomProblem(28, 7, 301, 17);
    expectSameOutputs(runOracle(problem), runScan(problem, 1));
}

TEST(LinearTransposition, TiledScanMatchesNaiveInLogSpace)
{
    const auto problem = oracle::randomProblem(20, 5, 97, 23);
    expectSameOutputs(runOracle(problem, true), runScan(problem, 1, true));
}

/**
 * The per-pair oracle against the scan over the shape grid, log space
 * on and off, serial and pooled, at every SIMD tier (the scan
 * dispatches no kernel, so no tier may move a bit).
 */
TEST(LinearTransposition, TiledScanMatchesNaiveAcrossShapesAndModes)
{
    const oracle::TierGuard guard;
    const auto problems = oracle::shapeGrid();
    for (const simd::Tier tier : oracle::availableTiers()) {
        simd::setTier(tier);
        for (const auto &problem : problems) {
            for (const bool log_space : {false, true}) {
                SCOPED_TRACE(std::string(simd::tierName(tier)) + " " +
                             oracle::shapeName(problem) +
                             " log=" + std::to_string(log_space));
                const auto expected = runOracle(problem, log_space);
                for (const std::size_t threads : {1u, 4u})
                    expectSameOutputs(expected, runScan(problem, threads,
                                                        log_space));
            }
        }
    }
}

/**
 * The shared scan itself hands its visitor every (target, predictor)
 * fit, each equal to the per-pair SimpleLinearRegression in all four
 * fields, exactly once and predictors ascending, at any thread count.
 * kNN^T consumes every one of these RSS values.
 */
TEST(LinearTransposition, SharedScanVisitsEveryPerPairFit)
{
    for (const auto &problem : oracle::shapeGrid()) {
        for (const bool log_space : {false, true}) {
            SCOPED_TRACE(oracle::shapeName(problem) +
                         " log=" + std::to_string(log_space));
            const auto fits = oracle::pairFits(problem, log_space);
            const std::size_t n_pred = problem.predictiveMachineCount();
            for (const std::size_t threads : {1u, 4u}) {
                std::vector<core::LineFit> seen(
                    problem.targetMachineCount() * n_pred);
                std::vector<std::size_t> next(problem.targetMachineCount(),
                                              0);
                core::scanLineFits(
                    core::machineColumns(problem.predictiveBenchScores,
                                         log_space),
                    problem.targetBenchScores, log_space, threads,
                    [&](std::size_t t, std::size_t p,
                        const core::LineFit &fit) {
                        EXPECT_EQ(p, next[t]++);
                        seen[t * n_pred + p] = fit;
                    });
                for (std::size_t t = 0; t < fits.size(); ++t) {
                    EXPECT_EQ(next[t], n_pred);
                    for (std::size_t p = 0; p < n_pred; ++p) {
                        const core::LineFit &fit = seen[t * n_pred + p];
                        const auto &ref = fits[t][p];
                        ASSERT_EQ(fit.rss, ref.residualSumSquares())
                            << "t=" << t << " p=" << p;
                        ASSERT_EQ(fit.rSquared, ref.rSquared());
                        ASSERT_EQ(fit.intercept, ref.intercept());
                        ASSERT_EQ(fit.slope, ref.slope());
                    }
                }
            }
        }
    }
}

TEST(LinearTransposition, ScaledScanThreadCountCannotChangeOutput)
{
    const auto problem = oracle::randomProblem(28, 9, 513, 29);
    const auto serial = runScan(problem, 1);
    for (const std::size_t threads : {2u, 4u, 0u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectSameOutputs(serial, runScan(problem, threads));
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
