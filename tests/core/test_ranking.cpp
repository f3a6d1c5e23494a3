/**
 * @file
 * Unit tests for the MachineRanking view.
 */

#include <gtest/gtest.h>

#include "core/ranking.h"
#include "dataset/synthetic_spec.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

TEST(MachineRanking, OrdersBestFirst)
{
    const core::MachineRanking ranking({10.0, 30.0, 20.0});
    ASSERT_EQ(ranking.size(), 3u);
    EXPECT_EQ(ranking.best(), 1u);
    EXPECT_EQ(ranking.entries()[0].machineIndex, 1u);
    EXPECT_EQ(ranking.entries()[1].machineIndex, 2u);
    EXPECT_EQ(ranking.entries()[2].machineIndex, 0u);
    EXPECT_EQ(ranking.entries()[0].rank, 1u);
    EXPECT_DOUBLE_EQ(ranking.entries()[0].predictedScore, 30.0);
}

TEST(MachineRanking, StableOnTies)
{
    const core::MachineRanking ranking({5.0, 5.0});
    EXPECT_EQ(ranking.best(), 0u);
}

TEST(MachineRanking, RejectsEmptyScores)
{
    EXPECT_THROW(core::MachineRanking({}), util::InvalidArgument);
}

TEST(MachineRanking, ToTableShowsMachineNames)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const auto targets = db.selectMachines({0, 1, 2});
    const core::MachineRanking ranking({1.0, 3.0, 2.0});
    const std::string table = ranking.toTable(targets, 2);
    EXPECT_NE(table.find(targets.machine(1).name()),
              std::string::npos);
    EXPECT_NE(table.find("rank"), std::string::npos);
    // Only the top 2 rows are printed: machine 0 (rank 3) is absent.
    EXPECT_EQ(table.find(targets.machine(0).name()),
              std::string::npos);
}

TEST(MachineRanking, ToTableValidatesSize)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    const auto targets = db.selectMachines({0, 1});
    const core::MachineRanking ranking({1.0, 2.0, 3.0});
    EXPECT_THROW(ranking.toTable(targets, 3), util::InvalidArgument);
}

} // namespace
