/**
 * @file
 * Unit tests for rank computation with ties.
 */

#include <gtest/gtest.h>

#include "stats/ranking.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

TEST(RankData, NoTies)
{
    const auto r = stats::rankData({30, 10, 20});
    EXPECT_EQ(r, (std::vector<double>{3, 1, 2}));
}

TEST(RankData, AverageTies)
{
    // 10 appears twice at positions 1 and 2 -> rank 1.5 each.
    const auto r = stats::rankData({10, 10, 20});
    EXPECT_EQ(r, (std::vector<double>{1.5, 1.5, 3}));
}

TEST(RankData, AllEqualAverage)
{
    const auto r = stats::rankData({5, 5, 5, 5});
    for (double v : r)
        EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(RankData, EmptyInput)
{
    EXPECT_TRUE(stats::rankData({}).empty());
}

TEST(RankData, RanksSumIsInvariant)
{
    // Sum of average ranks is always n(n+1)/2 regardless of ties.
    const std::vector<double> v = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
    const auto r = stats::rankData(v);
    double sum = 0.0;
    for (double x : r)
        sum += x;
    EXPECT_DOUBLE_EQ(sum, 55.0);
}

TEST(OrderDescending, SortsByValue)
{
    const auto order = stats::orderDescending({10, 30, 20});
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(OrderDescending, StableOnTies)
{
    const auto order = stats::orderDescending({5, 7, 5});
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 0, 2}));
}

} // namespace
