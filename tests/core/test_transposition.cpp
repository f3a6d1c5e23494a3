/**
 * @file
 * Unit tests for the transposition problem construction.
 */

#include <limits>

#include <gtest/gtest.h>

#include "core/linear_transposition.h"
#include "core/multi_transposition.h"
#include "core/transposition.h"
#include "dataset/synthetic_spec.h"
#include "util/error.h"
#include "tests/linalg/approx_equals.h"

namespace
{

using namespace dtrank;

TEST(TranspositionProblem, ValidateAcceptsConsistentProblem)
{
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix{{1, 2}, {3, 4}};
    p.predictiveAppScores = {5, 6};
    p.targetBenchScores = linalg::Matrix{{1, 2, 3}, {4, 5, 6}};
    EXPECT_NO_THROW(p.validate());
    EXPECT_EQ(p.benchmarkCount(), 2u);
    EXPECT_EQ(p.predictiveMachineCount(), 2u);
    EXPECT_EQ(p.targetMachineCount(), 3u);
}

TEST(TranspositionProblem, ValidateRejectsInconsistencies)
{
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix{{1, 2}, {3, 4}};
    p.predictiveAppScores = {5};
    p.targetBenchScores = linalg::Matrix{{1}, {2}};
    EXPECT_THROW(p.validate(), util::InvalidArgument);

    p.predictiveAppScores = {5, 6};
    p.targetBenchScores = linalg::Matrix{{1}};
    EXPECT_THROW(p.validate(), util::InvalidArgument);

    p.targetBenchScores = linalg::Matrix{{1}, {2}};
    p.predictiveAppScores = {5, -6};
    EXPECT_THROW(p.validate(), util::InvalidArgument);
}

TEST(TranspositionProblem, ValidateRejectsNonFiniteAppScores)
{
    // A constant proxy with an infinite app score used to give NN^T a
    // NaN (0 * Inf) and kNN^T an Inf; both now refuse the problem.
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix{{3, 2}, {3, 4}, {3, 7}};
    p.targetBenchScores = linalg::Matrix{{1}, {5}, {2}};
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad :
         {inf, std::numeric_limits<double>::quiet_NaN(), 0.0}) {
        p.predictiveAppScores = {bad, 6};
        EXPECT_THROW(p.validate(), util::InvalidArgument) << bad;
        EXPECT_THROW(core::LinearTransposition{}.predict(p),
                     util::InvalidArgument);
        EXPECT_THROW(core::MultiTransposition{}.predict(p),
                     util::InvalidArgument);
    }
}

TEST(TranspositionProblem, ValidateRejectsNonFiniteBenchmarkScores)
{
    // Built directly, without PerfDatabase: a +Inf target benchmark
    // score used to pass validation, and NN^T then predicted 0 for that
    // target and kNN^T NaN. Every bad valid cell of either matrix is
    // refused now; a masked-out cell may hold anything.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    core::TranspositionProblem p;
    p.predictiveBenchScores = linalg::Matrix{{3, 2}, {4, 4}, {5, 7}};
    p.predictiveAppScores = {5, 6};
    p.targetBenchScores = linalg::Matrix{{1, 2}, {inf, 3}, {2, 4}};
    EXPECT_THROW(p.validate(), util::InvalidArgument);
    EXPECT_THROW(core::LinearTransposition{}.predict(p),
                 util::InvalidArgument);
    core::MultiTranspositionConfig two;
    two.proxies = 2;
    EXPECT_THROW(core::MultiTransposition{two}.predict(p),
                 util::InvalidArgument);

    for (const double bad : {inf, -inf, nan, 0.0, -1.0}) {
        p.targetBenchScores = linalg::Matrix{{1, 2}, {6, 3}, {2, 4}};
        p.targetBenchScores(1, 0) = bad;
        EXPECT_THROW(p.validate(), util::InvalidArgument) << bad;
        p.targetBenchScores(1, 0) = 6;
        p.predictiveBenchScores(2, 1) = bad;
        EXPECT_THROW(p.validate(), util::InvalidArgument) << bad;
        p.predictiveBenchScores(2, 1) = 7;
    }
    EXPECT_NO_THROW(p.validate());

    p.targetMask = dataset::ScoreMask(3, 2);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            p.targetMask.set(r, c, !(r == 1 && c == 0));
    p.targetBenchScores(1, 0) = nan;
    EXPECT_NO_THROW(p.validate());
}

TEST(MakeProblem, SplitsAppRowFromSuite)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const auto pred_db = db.selectMachines({0, 1, 2, 3});
    const auto target_db = db.selectMachines({4, 5, 6});
    const auto problem =
        core::makeProblem(pred_db, target_db, "libquantum");

    EXPECT_EQ(problem.benchmarkCount(), db.benchmarkCount() - 1);
    EXPECT_EQ(problem.predictiveMachineCount(), 4u);
    EXPECT_EQ(problem.targetMachineCount(), 3u);

    // The app scores are libquantum's row on the predictive machines.
    const auto lq = db.benchmarkIndex("libquantum");
    for (std::size_t p = 0; p < 4; ++p)
        EXPECT_DOUBLE_EQ(problem.predictiveAppScores[p],
                         db.score(lq, p));
}

TEST(MakeProblem, TrainingRowsAlignAcrossSets)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const auto pred_db = db.selectMachines({0, 1});
    const auto target_db = db.selectMachines({2, 3});
    const auto problem = core::makeProblem(pred_db, target_db, "gcc");

    // Row i of both matrices must be the same benchmark.
    const auto gcc = db.benchmarkIndex("gcc");
    std::size_t row = 0;
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b) {
        if (b == gcc)
            continue;
        EXPECT_DOUBLE_EQ(problem.predictiveBenchScores(row, 0),
                         db.score(b, 0));
        EXPECT_DOUBLE_EQ(problem.targetBenchScores(row, 0),
                         db.score(b, 2));
        ++row;
    }
}

TEST(MakeProblem, UnknownAppThrows)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const auto pred_db = db.selectMachines({0});
    const auto target_db = db.selectMachines({1});
    EXPECT_THROW(core::makeProblem(pred_db, target_db, "not-a-bench"),
                 util::InvalidArgument);
}

TEST(MakeProblemFromSplit, RejectsOverlap)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    EXPECT_THROW(
        core::makeProblemFromSplit(db, {0, 1}, {1, 2}, "gcc"),
        util::InvalidArgument);
}

TEST(MakeProblemFromSplit, RejectsEmptySides)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    EXPECT_THROW(core::makeProblemFromSplit(db, {}, {0}, "gcc"),
                 util::InvalidArgument);
    EXPECT_THROW(core::makeProblemFromSplit(db, {0}, {}, "gcc"),
                 util::InvalidArgument);
}

TEST(MakeProblemFromSplit, MatchesManualConstruction)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const auto split =
        core::makeProblemFromSplit(db, {0, 1}, {2, 3}, "mcf");
    const auto manual = core::makeProblem(db.selectMachines({0, 1}),
                                          db.selectMachines({2, 3}),
                                          "mcf");
    EXPECT_TRUE(test::approxEquals(split.predictiveBenchScores,
        manual.predictiveBenchScores, 0.0));
    EXPECT_TRUE(test::approxEquals(split.targetBenchScores,
        manual.targetBenchScores, 0.0));
    EXPECT_EQ(split.predictiveAppScores, manual.predictiveAppScores);
}

} // namespace
