/**
 * @file
 * Regression models. SimpleLinearRegression is the building block of the
 * NN^T data-transposition predictor (Section 3.2.1): for each
 * target/predictive machine pair a y = a + b*x model is fitted across
 * the benchmark suite. MultipleLinearRegression supports the multivariate
 * extension and the experiments layer.
 */

#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace dtrank::stats
{

/**
 * Ordinary least-squares fit of y = intercept + slope * x.
 *
 * Fit quality is exposed both as residual sum of squares (used by NN^T
 * to pick the best predictive machine) and as R².
 */
class SimpleLinearRegression
{
  public:
    /**
     * Fits the model.
     *
     * @param x Predictor sample.
     * @param y Response sample, same length, at least 2 points.
     *
     * A zero-variance predictor yields slope 0 and intercept mean(y)
     * (the degenerate but well-defined best constant fit).
     */
    SimpleLinearRegression(const std::vector<double> &x,
                           const std::vector<double> &y);

    double intercept() const { return intercept_; }
    double slope() const { return slope_; }

    /** Predicted response at x. */
    double predict(double x) const { return intercept_ + slope_ * x; }

    /** Residual sum of squares on the training sample. */
    double residualSumSquares() const { return rss_; }

    /** R² on the training sample. */
    double rSquared() const { return r_squared_; }

    /** Number of training observations. */
    std::size_t sampleSize() const { return n_; }

  private:
    double intercept_ = 0.0;
    double slope_ = 0.0;
    double rss_ = 0.0;
    double r_squared_ = 0.0;
    std::size_t n_ = 0;
};

/**
 * Ordinary least-squares multiple regression with intercept:
 * y = b0 + b1*x1 + ... + bk*xk.
 */
class MultipleLinearRegression
{
  public:
    /**
     * Fits the model.
     *
     * @param x Design matrix, one row per observation (without the
     *          intercept column; it is added internally).
     * @param y Responses, length x.rows(); needs rows >= cols + 1.
     * @param ridge Optional ridge penalty (0 = plain OLS). A small
     *              positive value keeps near-collinear designs solvable.
     */
    explicit MultipleLinearRegression(const linalg::Matrix &x,
                                      const std::vector<double> &y,
                                      double ridge = 0.0);

    /** Intercept term b0. */
    double intercept() const { return coefficients_[0]; }

    /** Slope coefficients b1..bk (excluding the intercept). */
    std::vector<double> slopes() const;

    /** Predicted response for one feature vector of length k. */
    double predict(const std::vector<double> &features) const;

    /** Predicted responses for each row of a feature matrix. */
    std::vector<double> predict(const linalg::Matrix &features) const;

    /** Residual sum of squares on the training sample. */
    double residualSumSquares() const { return rss_; }

    /** R² on the training sample. */
    double rSquared() const { return r_squared_; }

  private:
    std::vector<double> coefficients_; // [b0, b1, ..., bk]
    double rss_ = 0.0;
    double r_squared_ = 0.0;
};

} // namespace dtrank::stats

