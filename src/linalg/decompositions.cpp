#include "linalg/decompositions.h"

#include <cmath>

#include "util/error.h"

namespace dtrank::linalg
{

namespace
{

constexpr double kRankTolerance = 1e-12;

} // namespace

Cholesky::Cholesky(const Matrix &a)
{
    util::require(a.rows() == a.cols(), "Cholesky: matrix must be square");
    const std::size_t n = a.rows();
    l_ = Matrix(n, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_(j, k) * l_(j, k);
        if (diag <= 0.0)
            throw util::NumericalError(
                "Cholesky: matrix is not positive definite");
        l_(j, j) = std::sqrt(diag);
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l_(i, k) * l_(j, k);
            l_(i, j) = acc / l_(j, j);
        }
    }
    lt_ = l_.transposed();
}

std::vector<double>
Cholesky::solve(const std::vector<double> &b) const
{
    const std::vector<double> y = solveLowerTriangular(l_, b);
    return solveUpperTriangular(lt_, y);
}

QrDecomposition::QrDecomposition(const Matrix &a)
    : qr_(a), rows_(a.rows()), cols_(a.cols())
{
    util::require(rows_ >= cols_,
                  "QrDecomposition: requires rows >= cols");
    rdiag_.assign(cols_, 0.0);

    for (std::size_t k = 0; k < cols_; ++k) {
        // Compute the 2-norm of the k-th column below the diagonal.
        double nrm = 0.0;
        for (std::size_t i = k; i < rows_; ++i)
            nrm = std::hypot(nrm, qr_(i, k));

        if (nrm != 0.0) {
            if (qr_(k, k) < 0.0)
                nrm = -nrm;
            for (std::size_t i = k; i < rows_; ++i)
                qr_(i, k) /= nrm;
            qr_(k, k) += 1.0;

            // Apply the transformation to the remaining columns.
            for (std::size_t j = k + 1; j < cols_; ++j) {
                double s = 0.0;
                for (std::size_t i = k; i < rows_; ++i)
                    s += qr_(i, k) * qr_(i, j);
                s = -s / qr_(k, k);
                for (std::size_t i = k; i < rows_; ++i)
                    qr_(i, j) += s * qr_(i, k);
            }
        }
        rdiag_[k] = -nrm;
    }
}

std::vector<double>
QrDecomposition::applyQt(const std::vector<double> &b) const
{
    util::require(b.size() == rows_, "QrDecomposition::applyQt: size "
                                     "mismatch");
    std::vector<double> y(b);
    for (std::size_t k = 0; k < cols_; ++k) {
        if (qr_(k, k) == 0.0)
            continue;
        double s = 0.0;
        for (std::size_t i = k; i < rows_; ++i)
            s += qr_(i, k) * y[i];
        s = -s / qr_(k, k);
        for (std::size_t i = k; i < rows_; ++i)
            y[i] += s * qr_(i, k);
    }
    return y;
}

bool
QrDecomposition::fullRank() const
{
    for (double d : rdiag_)
        if (std::fabs(d) < kRankTolerance)
            return false;
    return true;
}

std::vector<double>
QrDecomposition::solve(const std::vector<double> &b) const
{
    if (!fullRank())
        throw util::NumericalError("QrDecomposition::solve: rank-deficient "
                                   "matrix");
    std::vector<double> y = applyQt(b);
    // Back substitution on the implicit R.
    std::vector<double> x(cols_, 0.0);
    for (std::size_t kk = cols_; kk-- > 0;) {
        double acc = y[kk];
        for (std::size_t j = kk + 1; j < cols_; ++j)
            acc -= qr_(kk, j) * x[j];
        x[kk] = acc / rdiag_[kk];
    }
    return x;
}

std::vector<double>
solveUpperTriangular(const Matrix &r, const std::vector<double> &b)
{
    util::require(r.rows() == r.cols(), "solveUpperTriangular: matrix must "
                                        "be square");
    util::require(b.size() == r.rows(), "solveUpperTriangular: size "
                                        "mismatch");
    const std::size_t n = r.rows();
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        if (r(ii, ii) == 0.0)
            throw util::NumericalError("solveUpperTriangular: singular "
                                       "matrix");
        double acc = b[ii];
        for (std::size_t j = ii + 1; j < n; ++j)
            acc -= r(ii, j) * x[j];
        x[ii] = acc / r(ii, ii);
    }
    return x;
}

std::vector<double>
solveLowerTriangular(const Matrix &l, const std::vector<double> &b)
{
    util::require(l.rows() == l.cols(), "solveLowerTriangular: matrix must "
                                        "be square");
    util::require(b.size() == l.rows(), "solveLowerTriangular: size "
                                        "mismatch");
    const std::size_t n = l.rows();
    std::vector<double> x(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (l(i, i) == 0.0)
            throw util::NumericalError("solveLowerTriangular: singular "
                                       "matrix");
        double acc = b[i];
        for (std::size_t j = 0; j < i; ++j)
            acc -= l(i, j) * x[j];
        x[i] = acc / l(i, i);
    }
    return x;
}

} // namespace dtrank::linalg
