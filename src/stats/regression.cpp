#include "stats/regression.h"

#include <cmath>

#include "linalg/least_squares.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "util/error.h"

namespace dtrank::stats
{

SimpleLinearRegression::SimpleLinearRegression(const std::vector<double> &x,
                                               const std::vector<double> &y)
{
    util::require(x.size() == y.size(),
                  "SimpleLinearRegression: size mismatch");
    util::require(x.size() >= 2,
                  "SimpleLinearRegression: needs >= 2 observations");
    n_ = x.size();

    const double mx = mean(x);
    const double my = mean(y);
    double sxx = 0.0;
    double sxy = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
        const double dx = x[i] - mx;
        sxx += dx * dx;
        sxy += dx * (y[i] - my);
    }

    if (sxx == 0.0) {
        slope_ = 0.0;
        intercept_ = my;
    } else {
        slope_ = sxy / sxx;
        intercept_ = my - slope_ * mx;
    }

    double ss_tot = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
        const double r = y[i] - predict(x[i]);
        rss_ += r * r;
        const double d = y[i] - my;
        ss_tot += d * d;
    }
    if (ss_tot == 0.0)
        r_squared_ = rss_ == 0.0 ? 1.0 : 0.0;
    else
        r_squared_ = 1.0 - rss_ / ss_tot;
}

MultipleLinearRegression::MultipleLinearRegression(
    const linalg::Matrix &x, const std::vector<double> &y, double ridge)
{
    util::require(x.rows() == y.size(),
                  "MultipleLinearRegression: row count mismatch");
    util::require(x.rows() >= x.cols() + 1 || ridge > 0.0,
                  "MultipleLinearRegression: too few observations "
                  "(consider a ridge penalty)");

    // Prepend the intercept column.
    linalg::Matrix design(x.rows(), x.cols() + 1, 1.0);
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            design(r, c + 1) = x(r, c);

    linalg::LeastSquaresResult fit;
    if (ridge > 0.0)
        fit = linalg::solveRidge(design, y, ridge);
    else
        fit = linalg::solveLeastSquares(design, y);

    coefficients_ = fit.coefficients;
    rss_ = fit.residualSumSquares;

    const std::vector<double> pred = predict(x);
    r_squared_ = stats::rSquared(y, pred);
}

std::vector<double>
MultipleLinearRegression::slopes() const
{
    return {coefficients_.begin() + 1, coefficients_.end()};
}

double
MultipleLinearRegression::predict(const std::vector<double> &features) const
{
    util::require(features.size() + 1 == coefficients_.size(),
                  "MultipleLinearRegression::predict: feature count "
                  "mismatch");
    double acc = coefficients_[0];
    for (std::size_t i = 0; i < features.size(); ++i)
        acc += coefficients_[i + 1] * features[i];
    return acc;
}

std::vector<double>
MultipleLinearRegression::predict(const linalg::Matrix &features) const
{
    std::vector<double> out(features.rows());
    for (std::size_t r = 0; r < features.rows(); ++r)
        out[r] = predict(features.row(r));
    return out;
}

} // namespace dtrank::stats
