/**
 * @file
 * End-to-end integration tests: generate the database, run the full
 * prediction pipeline the way a library user would, and verify the
 * pieces compose (dataset -> problem -> predictor -> ranking ->
 * metrics), including CSV persistence in the middle.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "core/linear_transposition.h"
#include "core/metrics.h"
#include "core/mlp_transposition.h"
#include "core/ranking.h"
#include "core/selection.h"
#include "core/transposition.h"
#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

TEST(EndToEnd, PurchaseAdvisorPipeline)
{
    // 1. The published database (117 machines).
    const dataset::PerfDatabase db = dataset::makePaperDataset();

    // 2. The user owns a handful of diverse machines.
    util::Rng rng(11);
    std::vector<std::size_t> all(db.machineCount());
    for (std::size_t m = 0; m < all.size(); ++m)
        all[m] = m;
    const auto predictive =
        core::selectMachinesByKMedoids(db, all, 6, rng);

    // 3. Everything else is for sale.
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (std::find(predictive.begin(), predictive.end(), m) ==
            predictive.end())
            targets.push_back(m);

    // 4. Predict the application of interest (held-out benchmark).
    const auto problem = core::makeProblemFromSplit(
        db, predictive, targets, "omnetpp");
    core::LinearTransposition predictor;
    const auto predicted = predictor.predict(problem);

    // 5. Rank and buy.
    const core::MachineRanking ranking(predicted);
    ASSERT_GE(ranking.size(), 3u);

    // 6. Sanity: the purchase is close to optimal.
    const auto actual = db.selectMachines(targets).benchmarkScores(
        db.benchmarkIndex("omnetpp"));
    const auto metrics = core::evaluatePrediction(actual, predicted);
    EXPECT_GT(metrics.rankCorrelation, 0.8);
    EXPECT_LT(metrics.top1ErrorPercent, 50.0);
}

TEST(EndToEnd, CsvRoundTripPreservesPredictions)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const std::string path =
        ::testing::TempDir() + "dtrank_e2e.csv";
    db.saveCsv(path);
    const dataset::PerfDatabase loaded =
        dataset::PerfDatabase::loadCsv(path);
    std::remove(path.c_str());

    std::vector<std::size_t> predictive = {0, 20, 40, 60, 80, 100};
    std::vector<std::size_t> targets = {5, 25, 45, 65, 85, 105};

    core::LinearTransposition predictor;
    const auto a = predictor.predict(core::makeProblemFromSplit(
        db, predictive, targets, "bzip2"));
    const auto b = predictor.predict(core::makeProblemFromSplit(
        loaded, predictive, targets, "bzip2"));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], a[i] * 1e-4);
}

TEST(EndToEnd, MlpAndLinearAgreeOnEasyTargets)
{
    // On machines whose family is well represented in the predictive
    // set, both data-transposition flavours must largely agree on the
    // ranking they induce.
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    std::vector<std::size_t> predictive;
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        (m % 2 == 0 ? predictive : targets).push_back(m);

    const auto problem = core::makeProblemFromSplit(
        db, predictive, targets, "gcc");

    core::LinearTransposition lin;
    core::MlpTranspositionConfig mlp_config;
    mlp_config.mlp.epochs = 100;
    core::MlpTransposition mlp(mlp_config);

    const auto pa = lin.predict(problem);
    const auto pb = mlp.predict(problem);

    const auto actual =
        db.selectMachines(targets).benchmarkScores(
            db.benchmarkIndex("gcc"));
    EXPECT_GT(core::evaluatePrediction(actual, pa).rankCorrelation,
              0.9);
    EXPECT_GT(core::evaluatePrediction(actual, pb).rankCorrelation,
              0.9);
}

TEST(EndToEnd, HeterogeneousSchedulingScenario)
{
    // Section 4's scheduling application: predict per-app performance
    // on a small heterogeneous node pool and check assignment quality.
    const dataset::PerfDatabase db = dataset::makePaperDataset();

    // Node pool: one bandwidth monster, one high-clock FSB box, one
    // big-cache machine.
    std::vector<std::size_t> nodes;
    for (std::size_t m = 0; m < db.machineCount(); ++m) {
        const auto &info = db.machine(m);
        if (info.variant != 0)
            continue;
        if (info.nickname == "Gainestown" ||
            info.nickname == "Wolfdale-DP" ||
            info.nickname == "Montecito")
            nodes.push_back(m);
    }
    ASSERT_EQ(nodes.size(), 3u);

    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (std::find(nodes.begin(), nodes.end(), m) == nodes.end())
            predictive.push_back(m);

    // The bandwidth-bound app must be assigned to the Nehalem node.
    const auto problem = core::makeProblemFromSplit(
        db, predictive, nodes, "lbm");
    core::MlpTranspositionConfig config;
    config.mlp.epochs = 150;
    core::MlpTransposition predictor(config);
    const auto pred = predictor.predict(problem);
    const core::MachineRanking ranking(pred);
    EXPECT_EQ(db.machine(nodes[ranking.best()]).nickname,
              "Gainestown");
}

} // namespace
