/**
 * @file
 * Unit tests for the dense Matrix type.
 */

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "tests/simd/reference_kernels.h"
#include "util/error.h"
#include "tests/linalg/approx_equals.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstructor)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(Matrix, InitializerList)
{
    Matrix m{{1, 2}, {3, 4}, {5, 6}};
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows)
{
    EXPECT_THROW((Matrix{{1, 2}, {3}}), util::InvalidArgument);
}

TEST(Matrix, Identity)
{
    const Matrix id = Matrix::identity(3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, BoundsCheckedAccess)
{
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), util::InvalidArgument);
    EXPECT_THROW(m.at(0, 2), util::InvalidArgument);
    m.at(1, 1) = 9.0;
    EXPECT_DOUBLE_EQ(m.at(1, 1), 9.0);
}

TEST(Matrix, RowColumnCopies)
{
    const Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.row(1), (std::vector<double>{4, 5, 6}));
    EXPECT_EQ(m.column(2), (std::vector<double>{3, 6}));
    EXPECT_THROW(m.row(2), util::InvalidArgument);
    EXPECT_THROW(m.column(3), util::InvalidArgument);
}

TEST(Matrix, SetRowColumn)
{
    Matrix m(2, 2, 0.0);
    m.setRow(0, {1, 2});
    m.setColumn(1, {7, 8});
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
    EXPECT_THROW(m.setRow(0, {1}), util::InvalidArgument);
    EXPECT_THROW(m.setColumn(0, {1, 2, 3}), util::InvalidArgument);
}

TEST(Matrix, Transpose)
{
    const Matrix m{{1, 2, 3}, {4, 5, 6}};
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_TRUE(test::approxEquals(t.transposed(), m));
}

TEST(Matrix, MultiplyKnownProduct)
{
    const Matrix a{{1, 2}, {3, 4}};
    const Matrix b{{5, 6}, {7, 8}};
    const Matrix c = a.multiply(b);
    EXPECT_TRUE(test::approxEquals(c, Matrix{{19, 22}, {43, 50}}));
}

TEST(Matrix, MultiplyIdentityIsNoop)
{
    const Matrix a{{1, 2}, {3, 4}};
    EXPECT_TRUE(test::approxEquals(a.multiply(Matrix::identity(2)), a));
    EXPECT_TRUE(test::approxEquals(Matrix::identity(2).multiply(a), a));
}

TEST(Matrix, MultiplyDimensionMismatchThrows)
{
    const Matrix a(2, 3);
    const Matrix b(2, 3);
    EXPECT_THROW(a.multiply(b), util::InvalidArgument);
}

TEST(Matrix, MatrixVectorProduct)
{
    const Matrix a{{1, 2}, {3, 4}};
    EXPECT_EQ(a.multiply(std::vector<double>{1, 1}),
              (std::vector<double>{3, 7}));
    EXPECT_THROW(a.multiply(std::vector<double>{1}),
                 util::InvalidArgument);
}

TEST(Matrix, Select)
{
    const Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
    const Matrix s = m.select({2, 0}, {1});
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s.cols(), 1u);
    EXPECT_DOUBLE_EQ(s(0, 0), 8.0);
    EXPECT_DOUBLE_EQ(s(1, 0), 2.0);
    EXPECT_THROW(m.select({3}, {0}), util::InvalidArgument);
    EXPECT_THROW(m.select({0}, {3}), util::InvalidArgument);
}

TEST(Matrix, SelectRowsColumns)
{
    const Matrix m{{1, 2}, {3, 4}, {5, 6}};
    EXPECT_TRUE(test::approxEquals(m.selectRows({1}), Matrix{{3, 4}}));
    EXPECT_TRUE(
        test::approxEquals(m.selectColumns({1}), Matrix{{2}, {4}, {6}}));
}

TEST(Matrix, ApproxEquals)
{
    // The tolerance comparison the linear-algebra tests rely on.
    const Matrix a{{1.0}};
    const Matrix b{{1.0 + 1e-13}};
    EXPECT_TRUE(test::approxEquals(a, b));
    EXPECT_FALSE(test::approxEquals(a, Matrix{{1.1}}));
    EXPECT_FALSE(test::approxEquals(a, Matrix(2, 1)));
}

TEST(Matrix, EqualityOperator)
{
    const Matrix a{{1, 2}};
    Matrix b{{1, 2}};
    EXPECT_EQ(a, b);
    b(0, 1) = 3;
    EXPECT_NE(a, b);
}

/** Deterministic pseudo-random fill (no RNG dependency needed). */
Matrix
patternMatrix(std::size_t rows, std::size_t cols, double seed)
{
    Matrix m(rows, cols);
    double v = seed;
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            v = v * 1.7 - static_cast<double>((r + 2 * c) % 13) * 0.35;
            if (v > 10.0 || v < -10.0)
                v *= 0.03125;
            m(r, c) = v;
        }
    return m;
}

/** Textbook triple loop; the blocked kernel must match it bit for bit. */
Matrix
referenceMultiply(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double sum = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                sum += a(i, k) * b(k, j);
            out(i, j) = sum;
        }
    return out;
}

TEST(Matrix, BlockedMultiplyMatchesReferenceAcrossTileBoundaries)
{
    // Dimensions straddle the 64-wide tile so partial edge tiles, full
    // interior tiles, and multi-tile k accumulation are all exercised.
    const Matrix a = patternMatrix(70, 65, 0.5);
    const Matrix b = patternMatrix(65, 67, -0.25);
    EXPECT_EQ(a.multiply(b), referenceMultiply(a, b));
}

TEST(Matrix, BlockedMultiplySkipsZeroRowsLikeReference)
{
    Matrix a = patternMatrix(66, 66, 1.0);
    for (std::size_t k = 0; k < a.cols(); ++k)
        a(13, k) = 0.0;
    const Matrix b = patternMatrix(66, 66, 2.0);
    EXPECT_EQ(a.multiply(b), referenceMultiply(a, b));
}

TEST(Matrix, MultiplyTransposedMatchesExplicitTranspose)
{
    const Matrix a = patternMatrix(17, 70, 0.75);
    const Matrix b = patternMatrix(23, 70, -1.5);
    const Matrix fast = a.multiplyTransposed(b);
    const Matrix reference = referenceMultiply(a, b.transposed());
    EXPECT_EQ(fast.rows(), 17u);
    EXPECT_EQ(fast.cols(), 23u);
    // The per-element dot uses the canonical lane-blocked reduction,
    // which reorders the k sum relative to the textbook loop — so the
    // explicit transpose product agrees to rounding, not bit-for-bit...
    EXPECT_TRUE(test::approxEquals(fast, reference, 1e-9));
    // ...while the oracle's written-out canonical dot must match
    // exactly, at whichever tier dispatch selected.
    for (std::size_t i = 0; i < fast.rows(); ++i)
        for (std::size_t j = 0; j < fast.cols(); ++j)
            EXPECT_EQ(fast(i, j), simd::reference::dot(a.rowData(i),
                                                       b.rowData(j),
                                                       a.cols()));
}

TEST(Matrix, MultiplyTransposedValidatesSharedColumnCount)
{
    const Matrix a(3, 4);
    EXPECT_THROW(a.multiplyTransposed(Matrix(3, 5)),
                 util::InvalidArgument);
}

TEST(Matrix, SelectRowsExceptDropsExactlyOneRow)
{
    const Matrix m{{1, 2}, {3, 4}, {5, 6}};
    EXPECT_EQ(m.selectRowsExcept(0), (Matrix{{3, 4}, {5, 6}}));
    EXPECT_EQ(m.selectRowsExcept(1), (Matrix{{1, 2}, {5, 6}}));
    EXPECT_EQ(m.selectRowsExcept(2), (Matrix{{1, 2}, {3, 4}}));
    EXPECT_THROW(m.selectRowsExcept(3), util::InvalidArgument);
}

} // namespace
