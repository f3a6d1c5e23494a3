/**
 * @file
 * Reduced-budget reproduction tests: the paper's qualitative claims
 * must hold on the synthetic database even with cheaper training
 * budgets than the bench binaries use. These are the invariants the
 * full reproduction (bench_table2_family_cv and friends) rests on.
 */

#include <gtest/gtest.h>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/family_cv.h"

namespace
{

using namespace dtrank;
using experiments::Method;

/** Shared across the tests in this file; built once (it is slow). */
class ReproductionTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        db_ = new dataset::PerfDatabase(dataset::makePaperDataset());
        chars_ = new linalg::Matrix(
            dataset::MicaGenerator().generateForCatalog());

        experiments::MethodSuiteConfig config;
        config.mlp.mlp.epochs = 120;
        config.gaKnn.ga.populationSize = 24;
        config.gaKnn.ga.generations = 20;
        evaluator_ = new experiments::SplitEvaluator(*db_, *chars_,
                                                     config);
        const experiments::FamilyCrossValidation cv(*evaluator_);
        results_ = new experiments::FamilyCvResults(
            cv.run(experiments::allMethods()));
    }

    static void
    TearDownTestSuite()
    {
        delete results_;
        delete evaluator_;
        delete chars_;
        delete db_;
        results_ = nullptr;
        evaluator_ = nullptr;
        chars_ = nullptr;
        db_ = nullptr;
    }

    static dataset::PerfDatabase *db_;
    static linalg::Matrix *chars_;
    static experiments::SplitEvaluator *evaluator_;
    static experiments::FamilyCvResults *results_;
};

dataset::PerfDatabase *ReproductionTest::db_ = nullptr;
linalg::Matrix *ReproductionTest::chars_ = nullptr;
experiments::SplitEvaluator *ReproductionTest::evaluator_ = nullptr;
experiments::FamilyCvResults *ReproductionTest::results_ = nullptr;

TEST_F(ReproductionTest, MlpHasTheBestAverageRankCorrelation)
{
    const double mlp = results_->rankAggregate(Method::MlpT).average;
    const double nn = results_->rankAggregate(Method::NnT).average;
    const double ga = results_->rankAggregate(Method::GaKnn).average;
    EXPECT_GE(mlp, nn);
    EXPECT_GT(mlp, ga);
    EXPECT_GT(mlp, 0.9);
}

TEST_F(ReproductionTest, GaKnnHasTheWorstWorstCaseRank)
{
    const double mlp = results_->rankAggregate(Method::MlpT).worst;
    const double ga = results_->rankAggregate(Method::GaKnn).worst;
    EXPECT_LT(ga, mlp);
    EXPECT_LT(ga, 0.75); // an outlier benchmark must hurt GA-kNN
}

TEST_F(ReproductionTest, GaKnnTop1FailsBeyond100PercentOnOutliers)
{
    // The paper's headline failure of prior art (Section 6.2).
    EXPECT_GT(results_->top1Aggregate(Method::GaKnn).worst, 100.0);
}

TEST_F(ReproductionTest, MlpTop1StaysModest)
{
    // "...data transposition using neural networks brings the error
    // down to 25% at most" — allow slack for the reduced budget.
    EXPECT_LT(results_->top1Aggregate(Method::MlpT).worst, 40.0);
    EXPECT_LT(results_->top1Aggregate(Method::MlpT).average, 3.0);
}

TEST_F(ReproductionTest, GaKnnFailsOnTheDisguisedOutliers)
{
    // Per-benchmark view (Figure 6): the characteristic outliers must
    // be GA-kNN's worst benchmarks while MLP^T stays accurate on them.
    for (const auto &[outlier, twin] :
         dataset::characteristicDisguises()) {
        const double ga =
            results_->benchmarkMeanRank(Method::GaKnn, outlier);
        const double mlp =
            results_->benchmarkMeanRank(Method::MlpT, outlier);
        EXPECT_LT(ga, 0.85) << outlier;
        EXPECT_GT(mlp, 0.9) << outlier;
        EXPECT_GT(mlp, ga) << outlier;
    }
}

TEST_F(ReproductionTest, GaKnnIsAccurateOnMainstreamBenchmarks)
{
    // The paper's baseline is credible on non-outliers; our synthetic
    // data must not cripple it across the board.
    for (const char *bench : {"perlbench", "gcc", "gamess", "povray"}) {
        EXPECT_GT(results_->benchmarkMeanRank(Method::GaKnn, bench),
                  0.9)
            << bench;
    }
}

TEST_F(ReproductionTest, GaKnnHasTheWorstMeanError)
{
    const double mlp =
        results_->meanErrorAggregate(Method::MlpT).average;
    const double nn = results_->meanErrorAggregate(Method::NnT).average;
    const double ga =
        results_->meanErrorAggregate(Method::GaKnn).average;
    EXPECT_GT(ga, nn);
    EXPECT_GT(ga, mlp);
}

TEST_F(ReproductionTest, NamdAndHmmerAreHandledByEveryMethod)
{
    // Section 6.2: "Both data transposition and the prior work are
    // accurate at estimating performance for these benchmarks." Their
    // best machine (Montecito) is the oldest in the study, so the
    // temporal-drift component of the synthetic data puts a floor on
    // how precisely its scores can be predicted; "handled" here means
    // ranked well and never failing catastrophically (>100%).
    for (const char *bench : {"namd", "hmmer"}) {
        for (Method m : experiments::allMethods()) {
            EXPECT_GT(results_->benchmarkMeanRank(m, bench), 0.6)
                << bench << " " << experiments::methodName(m);
            EXPECT_LT(results_->benchmarkMeanTop1(m, bench), 60.0)
                << bench << " " << experiments::methodName(m);
        }
    }
}

} // namespace
