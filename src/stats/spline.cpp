#include "stats/spline.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "stats/descriptive.h"
#include "stats/regression.h"
#include "util/error.h"

namespace dtrank::stats
{

CubicSplineBasis::CubicSplineBasis(std::vector<double> knots)
    : knots_(std::move(knots))
{
    util::require(knots_.size() >= 3,
                  "CubicSplineBasis: needs at least 3 knots");
    for (std::size_t i = 1; i < knots_.size(); ++i)
        util::require(knots_[i] > knots_[i - 1],
                      "CubicSplineBasis: knots must be strictly "
                      "increasing");
}

CubicSplineBasis
CubicSplineBasis::fromQuantiles(std::vector<double> sample,
                                std::size_t count)
{
    util::require(count >= 3,
                  "CubicSplineBasis::fromQuantiles: needs >= 3 knots");
    util::require(!sample.empty(),
                  "CubicSplineBasis::fromQuantiles: empty sample");
    std::vector<double> knots;
    knots.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double q = static_cast<double>(i) /
                         static_cast<double>(count - 1);
        knots.push_back(quantile(sample, q));
    }
    // Deduplicate (ties in the sample can collapse quantiles).
    knots.erase(std::unique(knots.begin(), knots.end()), knots.end());
    util::require(knots.size() >= 3,
                  "CubicSplineBasis::fromQuantiles: sample has too few "
                  "distinct values");
    return CubicSplineBasis(std::move(knots));
}

std::vector<double>
CubicSplineBasis::evaluate(double x) const
{
    // Harrell's restricted cubic spline parameterization: linear tails
    // outside the boundary knots.
    const std::size_t k = knots_.size();
    const double t_last = knots_[k - 1];
    const double t_penult = knots_[k - 2];
    const double scale = (t_last - knots_[0]) * (t_last - knots_[0]);

    auto cube_plus = [](double v) {
        return v > 0.0 ? v * v * v : 0.0;
    };

    std::vector<double> basis;
    basis.reserve(k - 1);
    basis.push_back(x);
    for (std::size_t j = 0; j + 2 < k; ++j) {
        const double t_j = knots_[j];
        const double term =
            cube_plus(x - t_j) -
            cube_plus(x - t_penult) * (t_last - t_j) /
                (t_last - t_penult) +
            cube_plus(x - t_last) * (t_penult - t_j) /
                (t_last - t_penult);
        basis.push_back(term / scale);
    }
    return basis;
}

SplineRegression::SplineRegression(const std::vector<double> &x,
                                   const std::vector<double> &y,
                                   std::size_t knot_count)
{
    util::require(x.size() == y.size(),
                  "SplineRegression: size mismatch");
    util::require(x.size() >= 2,
                  "SplineRegression: needs >= 2 observations");

    const std::set<double> distinct(x.begin(), x.end());

    // Shrink the knot count to what the data supports: the design
    // needs rows >= columns + 1 = knots, and knots need distinct
    // quantiles.
    std::size_t knots = std::min(knot_count, distinct.size());
    knots = std::min(knots, x.size() > 1 ? x.size() - 1 : 0);

    if (knots >= 3) {
        basis_ = CubicSplineBasis::fromQuantiles(x, knots);
        const std::size_t dim = basis_->dimension();
        linalg::Matrix design(x.size(), dim);
        for (std::size_t r = 0; r < x.size(); ++r)
            design.setRow(r, basis_->evaluate(x[r]));
        // A whisper of ridge keeps nearly-coincident knots solvable.
        const MultipleLinearRegression fit(design, y, 1e-8);
        coefficients_.push_back(fit.intercept());
        for (double b : fit.slopes())
            coefficients_.push_back(b);
        rss_ = fit.residualSumSquares();
        r_squared_ = fit.rSquared();
        return;
    }

    // Degenerate data: plain straight line.
    const SimpleLinearRegression line(x, y);
    coefficients_ = {line.intercept(), line.slope()};
    rss_ = line.residualSumSquares();
    r_squared_ = line.rSquared();
}

double
SplineRegression::predict(double x) const
{
    if (!basis_.has_value())
        return coefficients_[0] + coefficients_[1] * x;
    const auto features = basis_->evaluate(x);
    double acc = coefficients_[0];
    for (std::size_t i = 0; i < features.size(); ++i)
        acc += coefficients_[i + 1] * features[i];
    return acc;
}

} // namespace dtrank::stats
