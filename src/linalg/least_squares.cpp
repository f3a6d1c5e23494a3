#include "linalg/least_squares.h"

#include "linalg/decompositions.h"
#include "util/error.h"

namespace dtrank::linalg
{

namespace
{

double
residualSumSquares(const Matrix &a, const std::vector<double> &b,
                   const std::vector<double> &x)
{
    const std::vector<double> pred = a.multiply(x);
    double rss = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double r = b[i] - pred[i];
        rss += r * r;
    }
    return rss;
}

} // namespace

LeastSquaresResult
solveLeastSquares(const Matrix &a, const std::vector<double> &b)
{
    util::require(a.rows() == b.size(),
                  "solveLeastSquares: row count mismatch");
    util::require(a.rows() >= a.cols(),
                  "solveLeastSquares: underdetermined system");
    const QrDecomposition qr(a);
    LeastSquaresResult out;
    out.coefficients = qr.solve(b);
    out.residualSumSquares = residualSumSquares(a, b, out.coefficients);
    return out;
}

LeastSquaresResult
solveRidge(const Matrix &a, const std::vector<double> &b, double lambda)
{
    util::require(a.rows() == b.size(), "solveRidge: row count mismatch");
    util::require(lambda > 0.0, "solveRidge: lambda must be positive");
    const Matrix at = a.transposed();
    // A^T A = A^T (A^T)^T: the transposed-B kernel streams both
    // operands along contiguous rows (identical sums, term for term).
    Matrix normal = at.multiplyTransposed(at);
    for (std::size_t i = 0; i < normal.rows(); ++i)
        normal(i, i) += lambda;
    const std::vector<double> rhs = at.multiply(b);
    const Cholesky chol(normal);
    LeastSquaresResult out;
    out.coefficients = chol.solve(rhs);
    out.residualSumSquares = residualSumSquares(a, b, out.coefficients);
    return out;
}

} // namespace dtrank::linalg
