/**
 * @file
 * Unit tests for the vector free functions.
 */

#include <gtest/gtest.h>

#include "linalg/vector_ops.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

TEST(VectorOps, Dot)
{
    EXPECT_DOUBLE_EQ(linalg::dot({1, 2, 3}, {4, 5, 6}), 32.0);
    EXPECT_DOUBLE_EQ(linalg::dot({}, {}), 0.0);
    EXPECT_THROW(linalg::dot({1}, {1, 2}), util::InvalidArgument);
}

TEST(VectorOps, Norm2)
{
    EXPECT_DOUBLE_EQ(linalg::norm2({3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(linalg::norm2({}), 0.0);
}

TEST(VectorOps, AddSubtract)
{
    EXPECT_EQ(linalg::subtract({3, 4}, {1, 2}),
              (std::vector<double>{2, 2}));
    EXPECT_THROW(linalg::subtract({1}, {1, 2}), util::InvalidArgument);
}

TEST(VectorOps, AddScaledInPlace)
{
    std::vector<double> a = {1, 1};
    linalg::addScaled(a, {2, 3}, 0.5);
    EXPECT_DOUBLE_EQ(a[0], 2.0);
    EXPECT_DOUBLE_EQ(a[1], 2.5);
    EXPECT_THROW(linalg::addScaled(a, {1}, 1.0), util::InvalidArgument);
}

TEST(VectorOps, SquaredDistance)
{
    EXPECT_DOUBLE_EQ(linalg::squaredDistance({0, 0}, {3, 4}), 25.0);
    EXPECT_DOUBLE_EQ(linalg::squaredDistance({1, 1}, {1, 1}), 0.0);
    EXPECT_THROW(linalg::squaredDistance({1}, {1, 2}),
                 util::InvalidArgument);
}

} // namespace
