/**
 * @file
 * Unit and property tests for the Cholesky and QR decompositions.
 */

#include <gtest/gtest.h>

#include "linalg/decompositions.h"
#include "linalg/matrix.h"
#include "util/error.h"
#include "util/rng.h"
#include "tests/linalg/approx_equals.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;

Matrix
randomSpd(std::size_t n, util::Rng &rng)
{
    // A^T A + n*I is symmetric positive definite.
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
    Matrix spd = a.transposed().multiply(a);
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

TEST(Cholesky, FactorReconstructsMatrix)
{
    const Matrix a{{4, 2}, {2, 3}};
    const linalg::Cholesky chol(a);
    const Matrix l = chol.lower();
    EXPECT_TRUE(test::approxEquals(l.multiply(l.transposed()), a, 1e-10));
}

TEST(Cholesky, SolveKnownSystem)
{
    const Matrix a{{4, 2}, {2, 3}};
    // x = (1, 2) -> b = A x = (8, 8).
    const auto x = linalg::Cholesky(a).solve({8, 8});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Cholesky, RejectsNonSquare)
{
    EXPECT_THROW(linalg::Cholesky(Matrix(2, 3)),
                 util::InvalidArgument);
}

TEST(Cholesky, RejectsIndefinite)
{
    const Matrix indefinite{{1, 2}, {2, 1}};
    EXPECT_THROW(linalg::Cholesky{indefinite}, util::NumericalError);
}

class CholeskyPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskyPropertyTest, SolvesRandomSpdSystems)
{
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 2 + rng.index(8);
    const Matrix a = randomSpd(n, rng);
    std::vector<double> x_true(n);
    for (double &v : x_true)
        v = rng.uniform(-5.0, 5.0);
    const auto b = a.multiply(x_true);
    const auto x = linalg::Cholesky(a).solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyPropertyTest,
                         ::testing::Range(0, 20));

TEST(Qr, SolveExactSystem)
{
    const Matrix a{{2, 0}, {0, 3}};
    const auto x = linalg::QrDecomposition(a).solve({4, 9});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Qr, LeastSquaresMinimizesResidual)
{
    // Overdetermined: fit y = c over 3 observations; solution is mean.
    const Matrix a{{1}, {1}, {1}};
    const auto x = linalg::QrDecomposition(a).solve({1.0, 2.0, 6.0});
    ASSERT_EQ(x.size(), 1u);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
}

TEST(Qr, RejectsUnderdetermined)
{
    EXPECT_THROW(linalg::QrDecomposition(Matrix(2, 3)),
                 util::InvalidArgument);
}

TEST(Qr, RankDeficientDetected)
{
    const Matrix a{{1, 2}, {2, 4}, {3, 6}}; // second column = 2x first
    const linalg::QrDecomposition qr(a);
    EXPECT_FALSE(qr.fullRank());
    EXPECT_THROW(qr.solve({1, 2, 3}), util::NumericalError);
}

TEST(Qr, ApplyQtPreservesNorm)
{
    util::Rng rng(99);
    Matrix a(5, 3);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
    const linalg::QrDecomposition qr(a);
    std::vector<double> b(5);
    for (double &v : b)
        v = rng.uniform(-1.0, 1.0);
    const auto qtb = qr.applyQt(b);
    double nb = 0.0;
    double nq = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
        nb += b[i] * b[i];
        nq += qtb[i] * qtb[i];
    }
    EXPECT_NEAR(nb, nq, 1e-10);
    EXPECT_THROW(qr.applyQt({1.0, 2.0}), util::InvalidArgument);
}

class QrPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(QrPropertyTest, RecoversRandomExactSolutions)
{
    util::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
    const std::size_t rows = 4 + rng.index(10);
    const std::size_t cols = 1 + rng.index(std::min<std::size_t>(rows, 5));
    Matrix a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            a(r, c) = rng.uniform(-3.0, 3.0);
    std::vector<double> x_true(cols);
    for (double &v : x_true)
        v = rng.uniform(-2.0, 2.0);
    const auto b = a.multiply(x_true);
    const linalg::QrDecomposition qr(a);
    if (!qr.fullRank())
        GTEST_SKIP() << "random matrix happened to be rank deficient";
    const auto x = qr.solve(b);
    for (std::size_t i = 0; i < cols; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrPropertyTest, ::testing::Range(0, 20));

TEST(TriangularSolve, UpperAndLower)
{
    const Matrix u{{2, 1}, {0, 4}};
    const auto x = linalg::solveUpperTriangular(u, {4, 8});
    EXPECT_NEAR(x[1], 2.0, 1e-12);
    EXPECT_NEAR(x[0], 1.0, 1e-12);

    const Matrix l{{2, 0}, {1, 4}};
    const auto y = linalg::solveLowerTriangular(l, {4, 9});
    EXPECT_NEAR(y[0], 2.0, 1e-12);
    EXPECT_NEAR(y[1], 1.75, 1e-12);
}

TEST(TriangularSolve, SingularThrows)
{
    const Matrix u{{0, 1}, {0, 1}};
    EXPECT_THROW(linalg::solveUpperTriangular(u, {1, 1}),
                 util::NumericalError);
    const Matrix l{{0, 0}, {1, 1}};
    EXPECT_THROW(linalg::solveLowerTriangular(l, {1, 1}),
                 util::NumericalError);
}

TEST(TriangularSolve, ValidatesShapes)
{
    EXPECT_THROW(linalg::solveUpperTriangular(Matrix(2, 3), {1, 2}),
                 util::InvalidArgument);
    EXPECT_THROW(linalg::solveLowerTriangular(Matrix(2, 2), {1}),
                 util::InvalidArgument);
}

} // namespace
