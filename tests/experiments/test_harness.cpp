/**
 * @file
 * Tests for the shared split evaluator.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "experiments/model_cache.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace
{

using namespace dtrank;
using experiments::Method;

experiments::MethodSuiteConfig
fastSuite()
{
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 20;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 4;
    return config;
}

struct Fixture
{
    dataset::PerfDatabase db = dataset::makePaperDataset();
    linalg::Matrix chars = dataset::MicaGenerator().generateForCatalog();
};

TEST(MethodNames, MatchThePaper)
{
    EXPECT_EQ(experiments::methodName(Method::NnT), "NN^T");
    EXPECT_EQ(experiments::methodName(Method::MlpT), "MLP^T");
    EXPECT_EQ(experiments::methodName(Method::GaKnn), "GA-10NN");
    EXPECT_EQ(experiments::allMethods().size(), 3u);
}

TEST(MethodNames, ExtensionsAreSuperset)
{
    EXPECT_EQ(experiments::methodName(Method::SplT), "SPL^T");
    EXPECT_EQ(experiments::methodName(Method::MultiNnT), "kNN^T");
    EXPECT_EQ(experiments::methodName(Method::DeepT), "DEEP^T");
    const auto &ext = experiments::extendedMethods();
    EXPECT_EQ(ext.size(), 6u);
    for (Method m : experiments::allMethods())
        EXPECT_TRUE(std::find(ext.begin(), ext.end(), m) != ext.end());
}

TEST(SplitEvaluator, RunsTheExtensionMethods)
{
    Fixture f;
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite());
    const std::vector<std::size_t> predictive = {0, 3, 6, 9, 12, 15};
    const std::vector<std::size_t> target = {40, 41, 42, 43};
    const auto results = evaluator.evaluateSplit(
        predictive, target, {Method::SplT, Method::MultiNnT});
    for (Method m : {Method::SplT, Method::MultiNnT}) {
        const auto &tasks = results.at(m);
        EXPECT_EQ(tasks.size(), f.db.benchmarkCount());
        for (const auto &task : tasks)
            for (double v : task.predicted)
                EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(SplitEvaluator, ValidatesCharacteristicShape)
{
    Fixture f;
    EXPECT_THROW(experiments::SplitEvaluator(
                     f.db, linalg::Matrix(3, 12), fastSuite()),
                 util::InvalidArgument);
}

TEST(SplitEvaluator, ProducesOneTaskPerBenchmarkPerMethod)
{
    Fixture f;
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite());
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < 20; ++m)
        predictive.push_back(m);
    const std::vector<std::size_t> target = {30, 31, 32, 33};

    const auto results = evaluator.evaluateSplit(
        predictive, target, {Method::NnT, Method::GaKnn});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &[method, tasks] : results) {
        EXPECT_EQ(tasks.size(), f.db.benchmarkCount());
        for (const auto &task : tasks) {
            EXPECT_EQ(task.predicted.size(), target.size());
            EXPECT_EQ(task.actual.size(), target.size());
        }
    }
}

TEST(SplitEvaluator, ActualScoresComeFromTheDatabase)
{
    Fixture f;
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite());
    const std::vector<std::size_t> predictive = {0, 1, 2, 3, 4};
    const std::vector<std::size_t> target = {10, 11};
    const auto results =
        evaluator.evaluateSplit(predictive, target, {Method::NnT});
    const auto &tasks = results.at(Method::NnT);
    for (const auto &task : tasks) {
        const std::size_t b = f.db.benchmarkIndex(task.benchmark);
        EXPECT_DOUBLE_EQ(task.actual[0], f.db.score(b, 10));
        EXPECT_DOUBLE_EQ(task.actual[1], f.db.score(b, 11));
    }
}

TEST(SplitEvaluator, DeterministicForFixedTag)
{
    Fixture f;
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite());
    const std::vector<std::size_t> predictive = {0, 1, 2, 3, 4, 5};
    const std::vector<std::size_t> target = {20, 21, 22};
    const auto a = evaluator.evaluateSplit(predictive, target,
                                           {Method::MlpT}, 7);
    const auto b = evaluator.evaluateSplit(predictive, target,
                                           {Method::MlpT}, 7);
    EXPECT_EQ(a.at(Method::MlpT)[0].predicted,
              b.at(Method::MlpT)[0].predicted);
}

TEST(SplitEvaluator, SplitTagChangesMlpSeeds)
{
    Fixture f;
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite());
    const std::vector<std::size_t> predictive = {0, 1, 2, 3, 4, 5};
    const std::vector<std::size_t> target = {20, 21, 22};
    const auto a = evaluator.evaluateSplit(predictive, target,
                                           {Method::MlpT}, 1);
    const auto b = evaluator.evaluateSplit(predictive, target,
                                           {Method::MlpT}, 2);
    EXPECT_NE(a.at(Method::MlpT)[0].predicted,
              b.at(Method::MlpT)[0].predicted);
}

TEST(SplitEvaluator, RequiresMethodsAndEnoughTargets)
{
    Fixture f;
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite());
    EXPECT_THROW(evaluator.evaluateSplit({0, 1}, {2, 3}, {}),
                 util::InvalidArgument);
    EXPECT_THROW(evaluator.evaluateSplit({0, 1}, {2}, {Method::NnT}),
                 util::InvalidArgument);
}

// ---------------------------------------------------------------------
// The split-level MLP^T step (lane groups over one shared matrix) must
// reproduce per-app predictTask bit for bit. Suite names contain
// "MlpLanes" so the TSan CI job's regex picks them up.
// ---------------------------------------------------------------------

const std::vector<std::size_t> kLanePredictive = {
    0, 3, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38, 41, 44, 47, 50};
const std::vector<std::size_t> kLaneTarget = {60, 61, 62, 63, 64, 65};
constexpr std::uint64_t kLaneTag = 3;

/** predictTask for every app of the split, one network at a time. */
std::vector<std::vector<double>>
perAppMlpT(const dataset::PerfDatabase &db,
           const experiments::MethodSuiteConfig &config)
{
    const dataset::PerfDatabase pred_db = db.selectMachines(kLanePredictive);
    const dataset::PerfDatabase target_db = db.selectMachines(kLaneTarget);
    std::vector<std::vector<double>> out;
    for (std::size_t app = 0; app < db.benchmarkCount(); ++app)
        out.push_back(experiments::predictTask(
            Method::MlpT, config, pred_db, target_db, app,
            experiments::taskMlpSeed(config, kLaneTag, app), nullptr,
            nullptr, nullptr));
    return out;
}

std::vector<std::vector<double>>
splitMlpT(const dataset::PerfDatabase &db, const linalg::Matrix &chars,
          const experiments::MethodSuiteConfig &config)
{
    const experiments::SplitEvaluator evaluator(db, chars, config);
    const auto results = evaluator.evaluateSplit(
        kLanePredictive, kLaneTarget, {Method::MlpT}, kLaneTag);
    std::vector<std::vector<double>> out;
    for (const experiments::TaskResult &task : results.at(Method::MlpT))
        out.push_back(task.predicted);
    return out;
}

void
expectSplitMatchesPerApp(const dataset::PerfDatabase &db,
                         const experiments::MethodSuiteConfig &config,
                         const linalg::Matrix &chars)
{
    const auto reference = perAppMlpT(db, config);
    const auto lanes = splitMlpT(db, chars, config);
    ASSERT_EQ(reference.size(), lanes.size());
    for (std::size_t app = 0; app < reference.size(); ++app)
        EXPECT_EQ(reference[app], lanes[app]) << "app " << app;
}

TEST(SplitMlpLanes, DenseSplitMatchesPerAppPredictTask)
{
    Fixture f;
    experiments::MethodSuiteConfig config = fastSuite();
    expectSplitMatchesPerApp(f.db, config, f.chars);
    config.parallel.threads = 3;
    expectSplitMatchesPerApp(f.db, config, f.chars);
}

TEST(SplitMlpLanes, RaggedSplitMatchesPerAppPredictTask)
{
    // 30% of the cells missing: apps keep different predictive
    // machines (and two apps' kept sets may coincide), every imputed
    // feature and target cell must land on the per-app bits.
    Fixture f;
    const dataset::PerfDatabase ragged =
        dataset::applyMissingness(f.db, 0.3, 17);
    ASSERT_TRUE(ragged.masked());
    expectSplitMatchesPerApp(ragged, fastSuite(), f.chars);
}

TEST(SplitMlpLanes, ImputedFeaturesInSharedLaneGroupsMatch)
{
    // Missing cells only in benchmarks 0-2: those three apps keep
    // fewer predictive machines, each set its own, and train as lane
    // groups of one, while every other app keeps them all and trains
    // in lane groups over a shared matrix whose benchmark 0-2 columns
    // carry imputed (observed-mean) features, on both the predictive
    // and the target side.
    Fixture f;
    dataset::ScoreMask mask(f.db.benchmarkCount(), f.db.machineCount(),
                            true);
    for (std::size_t m = 0; m < f.db.machineCount(); m += 4)
        mask.set(m % 3, m, false);
    const dataset::PerfDatabase ragged(f.db.benchmarks(), f.db.machines(),
                                       f.db.scores(), mask);
    expectSplitMatchesPerApp(ragged, fastSuite(), f.chars);
}

TEST(SplitMlpLanes, LogSpaceMatchesPerAppPredictTask)
{
    Fixture f;
    experiments::MethodSuiteConfig config = fastSuite();
    config.mlp.logSpace = true;
    expectSplitMatchesPerApp(f.db, config, f.chars);
}

TEST(SplitMlpLanes, TrainingOnlyNormalizationMatchesPerAppPredictTask)
{
    // The non-transductive ablation normalizes inside each network,
    // over its training rows alone.
    Fixture f;
    experiments::MethodSuiteConfig config = fastSuite();
    config.mlp.transductiveNormalization = false;
    expectSplitMatchesPerApp(f.db, config, f.chars);
}

TEST(SplitMlpLanes, ThreeBenchmarkSplitMatchesPerAppPredictTask)
{
    // The smallest database SplitEvaluator accepts: every MLP^T
    // network has two features and WEKA's automatic one-unit hidden
    // layer, and every app shares one kept set.
    Fixture f;
    const std::vector<std::size_t> benchmarks = {2, 9, 21};
    expectSplitMatchesPerApp(f.db.selectBenchmarks(benchmarks),
                             fastSuite(), f.chars.selectRows(benchmarks));
}

TEST(SplitMlpLanes, ModelCacheServesHitsAndTrainsOnlyMisses)
{
    Fixture f;
    const std::size_t n_apps = f.db.benchmarkCount();
    const auto reference = splitMlpT(f.db, f.chars, fastSuite());

    // One app's entry planted up front: the split step must look it
    // up (the planted value comes back) and train only the others.
    experiments::MethodSuiteConfig config = fastSuite();
    config.modelCache = std::make_shared<experiments::TrainedModelCache>();
    const std::size_t planted_app = 4;
    const std::vector<double> planted(kLaneTarget.size(), 42.0);
    config.modelCache->store(
        experiments::taskPredictionKey(
            Method::MlpT, config, f.db.selectMachines(kLanePredictive),
            f.db.selectMachines(kLaneTarget), planted_app,
            experiments::taskMlpSeed(config, kLaneTag, planted_app)),
        planted);

    obs::Counter &fits =
        obs::MetricsRegistry::global().counter("dtrank_mlp_fits_total");
    const std::uint64_t fits0 = fits.value();
    const auto first = splitMlpT(f.db, f.chars, config);
    EXPECT_EQ(fits.value() - fits0, n_apps - 1);
    auto stats = config.modelCache->stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, n_apps - 1);
    for (std::size_t app = 0; app < n_apps; ++app)
        EXPECT_EQ(first[app], app == planted_app ? planted : reference[app])
            << "app " << app;

    // A second call is all hits and trains nothing.
    const std::uint64_t fits1 = fits.value();
    const auto second = splitMlpT(f.db, f.chars, config);
    EXPECT_EQ(fits.value(), fits1);
    stats = config.modelCache->stats();
    EXPECT_EQ(stats.hits, 1u + n_apps);
    EXPECT_EQ(stats.misses, n_apps - 1);
    EXPECT_EQ(first, second);

    // Cache on, nothing planted: the same bits as cache off.
    config.modelCache = std::make_shared<experiments::TrainedModelCache>();
    EXPECT_EQ(splitMlpT(f.db, f.chars, config), reference);
}

} // namespace
