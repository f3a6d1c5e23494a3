/**
 * @file
 * Unit tests for the ranking comparison utilities.
 */

#include <gtest/gtest.h>

#include "core/ranking_comparison.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

TEST(TopNOverlap, PerfectPrediction)
{
    const std::vector<double> actual = {10, 30, 20, 40};
    EXPECT_DOUBLE_EQ(core::topNOverlap(actual, actual, 1), 1.0);
    EXPECT_DOUBLE_EQ(core::topNOverlap(actual, actual, 4), 1.0);
}

TEST(TopNOverlap, OrderWithinShortlistDoesNotMatter)
{
    const std::vector<double> actual = {1, 2, 3, 4};
    // Predicted swaps the top two; the top-2 set is identical.
    const std::vector<double> predicted = {1, 2, 9, 8};
    EXPECT_DOUBLE_EQ(core::topNOverlap(actual, predicted, 2), 1.0);
}

TEST(TopNOverlap, DisjointShortlists)
{
    const std::vector<double> actual = {1, 2, 9, 8};
    const std::vector<double> predicted = {9, 8, 1, 2};
    EXPECT_DOUBLE_EQ(core::topNOverlap(actual, predicted, 2), 0.0);
    // Over the full set the overlap is trivially 1.
    EXPECT_DOUBLE_EQ(core::topNOverlap(actual, predicted, 4), 1.0);
}

TEST(TopNOverlap, PartialOverlap)
{
    const std::vector<double> actual = {4, 3, 2, 1};    // top-2: 0, 1
    const std::vector<double> predicted = {4, 1, 3, 2}; // top-2: 0, 2
    EXPECT_DOUBLE_EQ(core::topNOverlap(actual, predicted, 2), 0.5);
}

TEST(TopNOverlap, Validation)
{
    EXPECT_THROW(core::topNOverlap({1, 2}, {1}, 1),
                 util::InvalidArgument);
    EXPECT_THROW(core::topNOverlap({1, 2}, {1, 2}, 0),
                 util::InvalidArgument);
    EXPECT_THROW(core::topNOverlap({1, 2}, {1, 2}, 3),
                 util::InvalidArgument);
}

TEST(RankDisplacement, IdenticalRankingsAreZero)
{
    const std::vector<double> v = {5, 1, 3};
    const auto d = core::rankDisplacement(v, v);
    EXPECT_EQ(d, (std::vector<std::size_t>{0, 0, 0}));
    EXPECT_EQ(core::maxRankDisplacement(v, v), 0u);
}

TEST(RankDisplacement, FullReversal)
{
    const std::vector<double> actual = {3, 2, 1};
    const std::vector<double> predicted = {1, 2, 3};
    const auto d = core::rankDisplacement(actual, predicted);
    // Machine 0: actual rank 1, predicted rank 3 -> displacement 2.
    EXPECT_EQ(d, (std::vector<std::size_t>{2, 0, 2}));
    EXPECT_EQ(core::maxRankDisplacement(actual, predicted), 2u);
}

TEST(RankDisplacement, SingleSwap)
{
    const std::vector<double> actual = {4, 3, 2, 1};
    const std::vector<double> predicted = {4, 2, 3, 1}; // swap mid pair
    const auto d = core::rankDisplacement(actual, predicted);
    EXPECT_EQ(d, (std::vector<std::size_t>{0, 1, 1, 0}));
}

TEST(RankDisplacement, Validation)
{
    EXPECT_THROW(core::rankDisplacement({}, {}),
                 util::InvalidArgument);
    EXPECT_THROW(core::rankDisplacement({1.0}, {1.0, 2.0}),
                 util::InvalidArgument);
}

} // namespace
