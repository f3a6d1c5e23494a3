/**
 * @file
 * Unit tests for descriptive statistics and the Summary accumulator.
 */

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

TEST(Descriptive, Mean)
{
    EXPECT_DOUBLE_EQ(stats::mean({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(stats::mean({5}), 5.0);
    EXPECT_THROW(stats::mean({}), util::InvalidArgument);
}

TEST(Descriptive, Variance)
{
    const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(stats::variancePopulation(v), 4.0);
    EXPECT_NEAR(stats::varianceSample(v), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats::stddevPopulation(v), 2.0);
    EXPECT_THROW(stats::varianceSample({1}), util::InvalidArgument);
}

TEST(Descriptive, MinMax)
{
    EXPECT_DOUBLE_EQ(stats::minimum({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(stats::maximum({3, 1, 2}), 3.0);
    EXPECT_THROW(stats::minimum({}), util::InvalidArgument);
    EXPECT_THROW(stats::maximum({}), util::InvalidArgument);
}

TEST(Descriptive, Quantile)
{
    const std::vector<double> v = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(stats::quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::quantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(stats::quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(stats::quantile(v, 0.25), 2.0);
    // Interpolation between order statistics.
    EXPECT_DOUBLE_EQ(stats::quantile({0, 10}, 0.3), 3.0);
    EXPECT_THROW(stats::quantile(v, 1.5), util::InvalidArgument);
    EXPECT_THROW(stats::quantile({}, 0.5), util::InvalidArgument);
}

TEST(Descriptive, GeometricMean)
{
    EXPECT_NEAR(stats::geometricMean({1, 4, 16}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats::geometricMean({3}), 3.0);
    EXPECT_THROW(stats::geometricMean({1, 0}), util::InvalidArgument);
    EXPECT_THROW(stats::geometricMean({-1.0}), util::InvalidArgument);
}

TEST(Descriptive, ArgMinMax)
{
    EXPECT_EQ(stats::argMax({1, 5, 3}), 1u);
    // First index wins on ties.
    EXPECT_EQ(stats::argMax({5, 5}), 0u);
    EXPECT_THROW(stats::argMax({}), util::InvalidArgument);
}

TEST(Summary, TracksMoments)
{
    stats::Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyThrows)
{
    stats::Summary s;
    EXPECT_THROW(s.mean(), util::InvalidArgument);
    EXPECT_THROW(s.min(), util::InvalidArgument);
}

} // namespace
