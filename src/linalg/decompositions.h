/**
 * @file
 * Matrix decompositions: Cholesky for SPD systems and Householder QR for
 * general least-squares problems.
 */

#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace dtrank::linalg
{

/**
 * Cholesky factorization A = L * L^T of a symmetric positive-definite
 * matrix.
 *
 * @throws NumericalError when A is not (numerically) positive definite.
 */
class Cholesky
{
  public:
    /** Factorizes the given SPD matrix. */
    explicit Cholesky(const Matrix &a);

    /** The lower-triangular factor L. */
    const Matrix &lower() const { return l_; }

    /** Solves A x = b using the stored factorization. */
    std::vector<double> solve(const std::vector<double> &b) const;

  private:
    Matrix l_;
    Matrix lt_; ///< L^T, materialized once so repeated solves (one
                ///< ridge system per target) skip the re-transpose.
};

/**
 * Householder QR factorization A = Q * R for a matrix with
 * rows >= cols.
 *
 * Stores the Householder vectors implicitly; exposes R, application of
 * Q^T, and least-squares solving.
 */
class QrDecomposition
{
  public:
    /** Factorizes A (rows >= cols required). */
    explicit QrDecomposition(const Matrix &a);

    /** Applies Q^T to a vector of length rows(). */
    std::vector<double> applyQt(const std::vector<double> &b) const;

    /**
     * Solves the least-squares problem min ||A x - b||_2.
     *
     * @throws NumericalError when A is rank deficient.
     */
    std::vector<double> solve(const std::vector<double> &b) const;

    /** True when every diagonal of R exceeds the rank tolerance. */
    bool fullRank() const;

  private:
    Matrix qr_;                  // Packed Householder vectors + R.
    std::vector<double> rdiag_;  // Diagonal of R.
    std::size_t rows_;
    std::size_t cols_;
};

/**
 * Back substitution for an upper-triangular system R x = b.
 *
 * @throws NumericalError on a zero diagonal element.
 */
std::vector<double> solveUpperTriangular(const Matrix &r,
                                         const std::vector<double> &b);

/** Forward substitution for a lower-triangular system L x = b. */
std::vector<double> solveLowerTriangular(const Matrix &l,
                                         const std::vector<double> &b);

} // namespace dtrank::linalg

