/**
 * @file
 * Unit tests for the Euclidean distance and the pairwise distance
 * matrix.
 */

#include <vector>

#include <gtest/gtest.h>

#include "ml/distance.h"
#include "simd/simd.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

TEST(Euclidean, KnownDistances)
{
    EXPECT_DOUBLE_EQ(ml::euclideanDistance({0, 0}, {3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(ml::euclideanDistance({1, 1}, {1, 1}), 0.0);
    EXPECT_THROW(ml::euclideanDistance({1}, {1, 2}), util::InvalidArgument);
}

// GA-kNN's distance is the weighted squared Euclidean distance of the
// simd kernel table.
TEST(WeightedEuclidean, ReducesToEuclideanWithUnitWeights)
{
    const std::vector<double> a{0, 0}, b{3, 4}, w{1.0, 1.0};
    EXPECT_DOUBLE_EQ(
        simd::weightedSquaredDistance(a.data(), b.data(), w.data(), 2),
        25.0);
}

TEST(WeightedEuclidean, ZeroWeightIgnoresDimension)
{
    const std::vector<double> a{0, 0}, b{3, 1000}, w{1.0, 0.0};
    EXPECT_DOUBLE_EQ(
        simd::weightedSquaredDistance(a.data(), b.data(), w.data(), 2),
        9.0);
}

TEST(PairwiseDistances, SymmetricZeroDiagonal)
{
    const std::vector<std::vector<double>> points = {
        {0, 0}, {3, 4}, {6, 8}};
    const auto d = ml::pairwiseDistances(points);
    ASSERT_EQ(d.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(d[i][i], 0.0);
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(d[i][j], d[j][i]);
    }
    EXPECT_DOUBLE_EQ(d[0][1], 5.0);
    EXPECT_DOUBLE_EQ(d[0][2], 10.0);
    EXPECT_DOUBLE_EQ(d[1][2], 5.0);
}

TEST(PairwiseDistances, TriangleInequalityHolds)
{
    const std::vector<std::vector<double>> points = {
        {0, 0}, {1, 2}, {4, 1}, {-2, 3}};
    const auto d = ml::pairwiseDistances(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        for (std::size_t j = 0; j < points.size(); ++j)
            for (std::size_t k = 0; k < points.size(); ++k)
                EXPECT_LE(d[i][j], d[i][k] + d[k][j] + 1e-12);
}

} // namespace
