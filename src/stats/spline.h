/**
 * @file
 * Spline-based regression (natural/restricted cubic splines).
 *
 * The paper's related-work section (7.1) cites Lee and Brooks' ASPLOS'06
 * advocacy of spline-based regression as the middle ground between
 * linear regression (too restrictive) and neural networks (opaque).
 * This module provides that model class so the transposition framework
 * can be instantiated with it (see core::SplineTransposition), giving
 * the repository the full spectrum the literature discusses:
 * linear -> spline -> neural network.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace dtrank::stats
{

/**
 * Restricted (natural) cubic spline basis over one predictor.
 *
 * With K knots t_1 < ... < t_K the basis has K-1 columns: the identity
 * x plus K-2 truncated-cubic terms that are linear beyond the boundary
 * knots (Harrell's parameterization). A model fitted on this basis is
 * a smooth piecewise-cubic curve with linear tails — well-behaved under
 * the mild extrapolation the transposition setting requires.
 */
class CubicSplineBasis
{
  public:
    /**
     * @param knots Strictly increasing knot locations; at least 3.
     */
    explicit CubicSplineBasis(std::vector<double> knots);

    /**
     * Places `count` knots at equally spaced quantiles of a sample
     * (the standard knot heuristic).
     *
     * @param sample Observations of the predictor (not necessarily
     *        sorted); must contain at least `count` distinct values.
     * @param count Number of knots, >= 3.
     */
    static CubicSplineBasis fromQuantiles(std::vector<double> sample,
                                          std::size_t count);

    /** Number of basis columns (knots() - 1). */
    std::size_t dimension() const { return knots_.size() - 1; }

    const std::vector<double> &knots() const { return knots_; }

    /** Evaluates the basis functions at x. */
    std::vector<double> evaluate(double x) const;

  private:
    std::vector<double> knots_;
};

/**
 * One-dimensional spline regression y = f(x) fitted by ordinary least
 * squares on the restricted cubic basis.
 */
class SplineRegression
{
  public:
    /**
     * Fits the curve.
     *
     * @param x Predictor sample.
     * @param y Response sample, same length.
     * @param knot_count Number of knots (>= 3); clamped down when the
     *        sample has too few points or distinct values, falling
     *        back to plain linear regression when necessary.
     */
    SplineRegression(const std::vector<double> &x,
                     const std::vector<double> &y,
                     std::size_t knot_count = 4);

    /** Predicted response at x (linear extrapolation in the tails). */
    double predict(double x) const;

    /** Residual sum of squares on the training sample. */
    double residualSumSquares() const { return rss_; }

    /** R² on the training sample. */
    double rSquared() const { return r_squared_; }

    /** True when the fit degenerated to a straight line. */
    bool isLinearFallback() const { return !basis_.has_value(); }

  private:
    // Coefficients over [1, basis...] (with basis empty in the linear
    // fallback, where slope/intercept live in coefficients_[1]/[0]).
    std::vector<double> coefficients_;
    std::optional<CubicSplineBasis> basis_;
    double rss_ = 0.0;
    double r_squared_ = 0.0;
};

} // namespace dtrank::stats

