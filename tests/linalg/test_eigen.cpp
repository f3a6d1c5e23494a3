/**
 * @file
 * Unit and property tests for the symmetric eigendecomposition.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "util/error.h"
#include "util/rng.h"
#include "tests/linalg/approx_equals.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;

TEST(EigenSymmetric, DiagonalMatrix)
{
    const Matrix a{{3, 0}, {0, 1}};
    const auto result = linalg::eigenSymmetric(a);
    ASSERT_EQ(result.eigenvalues.size(), 2u);
    EXPECT_NEAR(result.eigenvalues[0], 3.0, 1e-12);
    EXPECT_NEAR(result.eigenvalues[1], 1.0, 1e-12);
}

TEST(EigenSymmetric, KnownTwoByTwo)
{
    // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
    const Matrix a{{2, 1}, {1, 2}};
    const auto result = linalg::eigenSymmetric(a);
    EXPECT_NEAR(result.eigenvalues[0], 3.0, 1e-10);
    EXPECT_NEAR(result.eigenvalues[1], 1.0, 1e-10);
    // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
    const double v0 = result.eigenvectors(0, 0);
    const double v1 = result.eigenvectors(1, 0);
    EXPECT_NEAR(std::fabs(v0), 1.0 / std::sqrt(2.0), 1e-8);
    EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(EigenSymmetric, EigenvaluesSortedDescending)
{
    util::Rng rng(4);
    Matrix a(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = i; j < 5; ++j) {
            const double v = rng.uniform(-2.0, 2.0);
            a(i, j) = v;
            a(j, i) = v;
        }
    const auto result = linalg::eigenSymmetric(a);
    for (std::size_t i = 1; i < 5; ++i)
        EXPECT_GE(result.eigenvalues[i - 1], result.eigenvalues[i]);
}

class EigenPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EigenPropertyTest, ReconstructsRandomSymmetricMatrices)
{
    util::Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 2 + rng.index(7);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j) {
            const double v = rng.uniform(-3.0, 3.0);
            a(i, j) = v;
            a(j, i) = v;
        }

    const auto result = linalg::eigenSymmetric(a);
    const Matrix &v = result.eigenvectors;

    // V diag(w) V^T must reconstruct A.
    Matrix d(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        d(i, i) = result.eigenvalues[i];
    const Matrix rebuilt = v.multiply(d).multiply(v.transposed());
    EXPECT_TRUE(test::approxEquals(rebuilt, a, 1e-8));

    // V must be orthonormal.
    EXPECT_TRUE(test::approxEquals(v.transposed().multiply(v),
        Matrix::identity(n), 1e-8));

    // Trace is preserved.
    double trace = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        trace += a(i, i);
        sum += result.eigenvalues[i];
    }
    EXPECT_NEAR(trace, sum, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenPropertyTest,
                         ::testing::Range(0, 15));

TEST(EigenSymmetric, Validation)
{
    EXPECT_THROW(linalg::eigenSymmetric(Matrix(2, 3)),
                 util::InvalidArgument);
    const Matrix asym{{1, 2}, {3, 4}};
    EXPECT_THROW(linalg::eigenSymmetric(asym), util::InvalidArgument);
}

TEST(EigenSymmetric, OneByOne)
{
    const auto result = linalg::eigenSymmetric(Matrix{{7.0}});
    EXPECT_DOUBLE_EQ(result.eigenvalues[0], 7.0);
    EXPECT_DOUBLE_EQ(std::fabs(result.eigenvectors(0, 0)), 1.0);
}

} // namespace
