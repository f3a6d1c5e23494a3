/**
 * @file
 * Linear least-squares solving on top of the QR decomposition, plus a
 * ridge-regularized variant used when design matrices are close to
 * singular (e.g. MLP^T with very few predictive machines).
 */

#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace dtrank::linalg
{

/** Result of a least-squares solve. */
struct LeastSquaresResult
{
    /** Fitted coefficients, one per design-matrix column. */
    std::vector<double> coefficients;
    /** Residual sum of squares at the solution. */
    double residualSumSquares = 0.0;
};

/**
 * Solves min_x ||A x - b||_2 via Householder QR.
 *
 * @param a Design matrix (rows >= cols, full column rank).
 * @param b Response vector of length a.rows().
 * @throws NumericalError when A is rank deficient.
 */
LeastSquaresResult solveLeastSquares(const Matrix &a,
                                     const std::vector<double> &b);

/**
 * Ridge-regularized least squares:
 * min_x ||A x - b||_2^2 + lambda ||x||_2^2, solved through the normal
 * equations with a Cholesky factorization. Always solvable for
 * lambda > 0.
 */
LeastSquaresResult solveRidge(const Matrix &a, const std::vector<double> &b,
                              double lambda);

} // namespace dtrank::linalg

