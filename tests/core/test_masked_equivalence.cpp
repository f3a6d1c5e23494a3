/**
 * @file
 * The mask=∅ bit-identity contract of the masked model stack: a
 * database wearing a MATERIALIZED all-valid mask (not the dense
 * sentinel, so every masked code path actually executes) must
 * reproduce the dense pipeline bit for bit — for every method of the
 * extended suite, across SIMD tiers and thread counts. Plus the masked
 * least-squares/ridge row-compaction contract and sanity properties of
 * predictions under real missingness. Suite names contain "Masked" so
 * the TSan CI job's regex picks these up.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/transposition.h"
#include "dataset/mica.h"
#include "dataset/perf_database.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "simd/simd.h"

namespace
{

using namespace dtrank;
using experiments::Method;
using simd::Tier;

experiments::MethodSuiteConfig
fastSuite(std::size_t threads)
{
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 20;
    config.deep.mlp.epochs = 20;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 4;
    config.parallel.threads = threads;
    return config;
}

/** Exact, field-by-field comparison of two split evaluations. */
void
expectIdentical(const experiments::SplitResults &lhs,
                const experiments::SplitResults &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (const auto &[method, lhs_tasks] : lhs) {
        SCOPED_TRACE(experiments::methodName(method));
        const auto it = rhs.find(method);
        ASSERT_NE(it, rhs.end());
        const auto &rhs_tasks = it->second;
        ASSERT_EQ(lhs_tasks.size(), rhs_tasks.size());
        for (std::size_t i = 0; i < lhs_tasks.size(); ++i) {
            const experiments::TaskResult &a = lhs_tasks[i];
            const experiments::TaskResult &b = rhs_tasks[i];
            EXPECT_EQ(a.benchmark, b.benchmark);
            EXPECT_EQ(a.predicted, b.predicted);
            EXPECT_EQ(a.metrics.rankCorrelation,
                      b.metrics.rankCorrelation);
            EXPECT_EQ(a.metrics.top1ErrorPercent,
                      b.metrics.top1ErrorPercent);
            EXPECT_EQ(a.metrics.meanErrorPercent,
                      b.metrics.meanErrorPercent);
            EXPECT_EQ(a.metrics.maxErrorPercent,
                      b.metrics.maxErrorPercent);
        }
    }
}

class MaskedEmptyMaskIdentity : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = simd::activeTier(); }
    void TearDown() override { simd::setTier(saved_); }

    /** `db_` with a materialized all-valid mask: masked() is true and
     * every masked code path runs, yet nothing is actually missing. */
    dataset::PerfDatabase
    allValidTwin() const
    {
        return dataset::PerfDatabase(
            db_.benchmarks(), db_.machines(), db_.scores(),
            dataset::ScoreMask(db_.benchmarkCount(), db_.machineCount(),
                               true));
    }

    experiments::SplitResults
    runSplit(const dataset::PerfDatabase &db, Tier tier,
             std::size_t threads) const
    {
        simd::setTier(tier);
        const experiments::SplitEvaluator evaluator(db, chars_,
                                                    fastSuite(threads));
        std::vector<std::size_t> predictive;
        for (std::size_t m = 0; m < 10; ++m)
            predictive.push_back(m);
        const std::vector<std::size_t> target = {30, 31, 32, 33};
        return evaluator.evaluateSplit(predictive, target,
                                       experiments::extendedMethods(),
                                       5);
    }

    dataset::PerfDatabase db_ = dataset::makePaperDataset();
    linalg::Matrix chars_ = dataset::MicaGenerator().generateForCatalog();

  private:
    Tier saved_ = Tier::Scalar;
};

TEST_F(MaskedEmptyMaskIdentity, AllValidMaskMatchesDenseEveryTier)
{
    const dataset::PerfDatabase twin = allValidTwin();
    ASSERT_TRUE(twin.masked());
    for (Tier tier : {Tier::Scalar, Tier::Avx2, Tier::Avx512}) {
        if (!simd::tierAvailable(tier))
            continue;
        SCOPED_TRACE(simd::tierName(tier));
        expectIdentical(runSplit(db_, tier, 1), runSplit(twin, tier, 1));
    }
}

TEST_F(MaskedEmptyMaskIdentity, AllValidMaskMatchesDenseAcrossThreads)
{
    const dataset::PerfDatabase twin = allValidTwin();
    const auto reference = runSplit(db_, Tier::Scalar, 1);
    expectIdentical(reference, runSplit(twin, Tier::Scalar, 4));
    if (simd::tierAvailable(Tier::Avx2))
        expectIdentical(reference, runSplit(twin, Tier::Avx2, 4));
    if (simd::tierAvailable(Tier::Avx512))
        expectIdentical(reference, runSplit(twin, Tier::Avx512, 4));
}

/** Real missingness: every method must still produce finite, positive
 * predictions for every target machine (the degradation-sweep
 * invariant the nightly job relies on). */
TEST(MaskedPredictions, AllMethodsStayFiniteUnderRealMissingness)
{
    const dataset::PerfDatabase db = dataset::applyMissingness(
        dataset::makePaperDataset(), 0.3, 7);
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();
    const experiments::SplitEvaluator evaluator(db, chars,
                                                fastSuite(2));
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < 10; ++m)
        predictive.push_back(m);
    const std::vector<std::size_t> target = {30, 31, 32, 33, 34};
    const auto results = evaluator.evaluateSplit(
        predictive, target, experiments::extendedMethods(), 1);
    for (const auto &[method, tasks] : results) {
        SCOPED_TRACE(experiments::methodName(method));
        ASSERT_EQ(tasks.size(), db.benchmarkCount());
        for (const auto &task : tasks)
            for (double v : task.predicted) {
                EXPECT_TRUE(std::isfinite(v));
                EXPECT_GT(v, 0.0);
            }
    }
}

/** Masked split evaluation is deterministic across thread counts even
 * with unobserved cells in play. */
TEST(MaskedPredictions, MissingnessIsThreadCountInvariant)
{
    const dataset::PerfDatabase db = dataset::applyMissingness(
        dataset::makePaperDataset(), 0.3, 7);
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < 10; ++m)
        predictive.push_back(m);
    const std::vector<std::size_t> target = {30, 31, 32, 33};

    const experiments::SplitEvaluator serial(db, chars, fastSuite(1));
    const experiments::SplitEvaluator parallel(db, chars, fastSuite(4));
    expectIdentical(
        serial.evaluateSplit(predictive, target,
                             experiments::extendedMethods(), 3),
        parallel.evaluateSplit(predictive, target,
                               experiments::extendedMethods(), 3));
}

/** densifiedProblem: identity matrices at all-valid, imputed + dropped
 * machines under real masks. */
TEST(MaskedProblems, DensifiedProblemIsIdentityAtAllValid)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const dataset::PerfDatabase twin(
        db.benchmarks(), db.machines(), db.scores(),
        dataset::ScoreMask(db.benchmarkCount(), db.machineCount(),
                           true));
    const dataset::PerfDatabase pred = twin.selectMachines({0, 1, 2, 3});
    const dataset::PerfDatabase target =
        twin.selectMachines({10, 11, 12});
    const auto problem = core::makeLeaveOneOutProblem(pred, target, 0);
    ASSERT_TRUE(problem.masked());
    const auto densified = core::densifiedProblem(problem);
    EXPECT_FALSE(densified.masked());
    EXPECT_EQ(densified.predictiveBenchScores.data(),
              problem.predictiveBenchScores.data());
    EXPECT_EQ(densified.targetBenchScores.data(),
              problem.targetBenchScores.data());
    EXPECT_EQ(densified.predictiveAppScores,
              problem.predictiveAppScores);
}

} // namespace
