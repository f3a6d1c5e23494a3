/**
 * @file
 * Unit tests for the extension predictors SPL^T (spline transposition)
 * and kNN^T (multi-proxy linear transposition).
 */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/linear_transposition.h"
#include "core/metrics.h"
#include "core/multi_transposition.h"
#include "core/spline_transposition.h"
#include "core/transposition.h"
#include "dataset/synthetic_spec.h"
#include "line_fit_oracle.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

/** Target = quadratic function of one predictive machine. */
core::TranspositionProblem
quadraticProblem()
{
    core::TranspositionProblem p;
    const std::size_t n = 15;
    p.predictiveBenchScores = linalg::Matrix(n, 2);
    p.targetBenchScores = linalg::Matrix(n, 1);
    util::Rng rng(3);
    for (std::size_t b = 0; b < n; ++b) {
        const double x = 1.0 + static_cast<double>(b);
        p.predictiveBenchScores(b, 0) = rng.uniform(1.0, 16.0);
        p.predictiveBenchScores(b, 1) = x;
        p.targetBenchScores(b, 0) = 0.1 * x * x + 2.0;
    }
    p.predictiveAppScores = {5.0, 8.0};
    return p;
}

TEST(SplineTransposition, BeatsLinearOnCurvedRelations)
{
    auto problem = quadraticProblem();
    core::SplineTransposition spline{};
    core::LinearTransposition linear{};
    const auto sp = spline.predict(problem);
    const auto lp = linear.predict(problem);
    const double truth = 0.1 * 8.0 * 8.0 + 2.0; // 8.4
    EXPECT_LT(std::fabs(sp[0] - truth), std::fabs(lp[0] - truth));
    EXPECT_NEAR(sp[0], truth, 0.2);
    EXPECT_EQ(spline.diagnostics().chosenPredictive[0], 1u);
    EXPECT_GT(spline.diagnostics().fitRSquared[0], 0.999);
}

TEST(SplineTransposition, NameAndConfig)
{
    core::SplineTransposition predictor{};
    EXPECT_EQ(predictor.name(), "SPL^T");
}

TEST(SplineTransposition, WorksOnThePaperDataset)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    std::vector<std::size_t> predictive;
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        (m % 3 == 0 ? predictive : targets).push_back(m);
    const auto problem =
        core::makeProblemFromSplit(db, predictive, targets, "gcc");
    core::SplineTransposition predictor{};
    const auto pred = predictor.predict(problem);
    const auto actual = db.selectMachines(targets).benchmarkScores(
        db.benchmarkIndex("gcc"));
    EXPECT_GT(core::evaluatePrediction(actual, pred).rankCorrelation,
              0.9);
}

TEST(SplineTransposition, LogSpaceMode)
{
    auto problem = quadraticProblem();
    core::SplineTranspositionConfig config;
    config.logSpace = true;
    core::SplineTransposition predictor(config);
    const auto pred = predictor.predict(problem);
    EXPECT_GT(pred[0], 0.0);
    EXPECT_TRUE(std::isfinite(pred[0]));
}

TEST(MultiTransposition, SingleProxyMatchesNnTClosely)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    std::vector<std::size_t> predictive;
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        (m % 4 == 0 ? predictive : targets).push_back(m);
    const auto problem =
        core::makeProblemFromSplit(db, predictive, targets, "mcf");

    core::MultiTranspositionConfig config;
    config.proxies = 1;
    core::MultiTransposition multi(config);
    core::LinearTransposition nn{};
    const auto pm = multi.predict(problem);
    const auto pn = nn.predict(problem);
    // Same proxy, same model family (ridge is negligible): predictions
    // must agree tightly.
    for (std::size_t t = 0; t < pm.size(); ++t)
        EXPECT_NEAR(pm[t], pn[t], 1e-3 * pn[t]);
}

/**
 * kNN^T against its per-pair oracle over NN^T's shape grid (constant
 * predictive and target columns, so RSS ties are broken by index), log
 * space on and off, at every SIMD tier: the predictions, the chosen
 * proxies and the ridge fits' R² are all bit-identical.
 */
TEST(MultiTransposition, TiledScanMatchesNaiveBitForBit)
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
                core::MultiTranspositionConfig config;
                config.logSpace = log_space;
                const auto expected = oracle::knnOracle(problem, config);
                core::MultiTransposition multi(config);
                EXPECT_EQ(multi.predict(problem), expected.predictions);
                EXPECT_EQ(multi.diagnostics().chosenProxies,
                          expected.diagnostics.chosenProxies);
                EXPECT_EQ(multi.diagnostics().fitRSquared,
                          expected.diagnostics.fitRSquared);
            }
        }
    }
}

TEST(MultiTransposition, CombinesComplementaryProxies)
{
    // The target is the average of two predictive machines that are
    // individually poor proxies; two proxies jointly fit it exactly.
    util::Rng rng(9);
    core::TranspositionProblem p;
    const std::size_t n = 20;
    p.predictiveBenchScores = linalg::Matrix(n, 2);
    p.targetBenchScores = linalg::Matrix(n, 1);
    for (std::size_t b = 0; b < n; ++b) {
        p.predictiveBenchScores(b, 0) = rng.uniform(5.0, 30.0);
        p.predictiveBenchScores(b, 1) = rng.uniform(5.0, 30.0);
        p.targetBenchScores(b, 0) =
            0.5 * (p.predictiveBenchScores(b, 0) +
                   p.predictiveBenchScores(b, 1));
    }
    p.predictiveAppScores = {10.0, 20.0};

    core::MultiTranspositionConfig config;
    config.proxies = 2;
    core::MultiTransposition multi(config);
    const auto pred = multi.predict(p);
    EXPECT_NEAR(pred[0], 15.0, 0.05);
    EXPECT_GT(multi.diagnostics().fitRSquared[0], 0.999);

    core::LinearTransposition nn{};
    const auto single = nn.predict(p);
    EXPECT_GT(std::fabs(single[0] - 15.0),
              std::fabs(pred[0] - 15.0));
}

TEST(MultiTransposition, ProxyCountCappedByAvailableMachines)
{
    auto problem = quadraticProblem(); // 2 predictive machines
    core::MultiTranspositionConfig config;
    config.proxies = 10;
    core::MultiTransposition multi(config);
    const auto pred = multi.predict(problem);
    EXPECT_EQ(multi.diagnostics().chosenProxies[0].size(), 2u);
    EXPECT_TRUE(std::isfinite(pred[0]));
}

TEST(MultiTransposition, NameReflectsProxyCount)
{
    core::MultiTranspositionConfig config;
    config.proxies = 3;
    EXPECT_EQ(core::MultiTransposition(config).name(), "3NN^T");
    config.proxies = 0;
    EXPECT_THROW(core::MultiTransposition{config},
                 util::InvalidArgument);
}

TEST(MultiTransposition, RanksThePaperDatasetWell)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    std::vector<std::size_t> predictive;
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        (m % 3 == 0 ? predictive : targets).push_back(m);
    const auto problem = core::makeProblemFromSplit(
        db, predictive, targets, "libquantum");
    core::MultiTransposition multi{};
    const auto pred = multi.predict(problem);
    const auto actual = db.selectMachines(targets).benchmarkScores(
        db.benchmarkIndex("libquantum"));
    EXPECT_GT(core::evaluatePrediction(actual, pred).rankCorrelation,
              0.9);
}

} // namespace
