#include "ml/pca.h"

#include <cmath>

#include "linalg/eigen.h"
#include "stats/descriptive.h"
#include "util/error.h"

namespace dtrank::ml
{

Pca::Pca(PcaConfig config) : config_(config)
{
}

void
Pca::fit(const linalg::Matrix &x)
{
    util::require(x.rows() >= 2, "Pca::fit: needs >= 2 observations");
    util::require(x.cols() >= 1, "Pca::fit: needs >= 1 feature");
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            util::require(std::isfinite(x(r, c)),
                          "Pca::fit: every entry must be finite");

    means_.assign(d, 0.0);
    scales_.assign(d, 1.0);
    for (std::size_t c = 0; c < d; ++c) {
        const auto col = x.column(c);
        means_[c] = stats::mean(col);
        if (config_.standardize) {
            const double s = stats::stddevSample(col);
            scales_[c] = s > 0.0 ? s : 1.0;
        }
    }

    // Centered (and optionally standardized) data.
    linalg::Matrix z(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            z(r, c) = (x(r, c) - means_[c]) / scales_[c];

    // Sample covariance.
    linalg::Matrix cov(d, d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = i; j < d; ++j) {
            double acc = 0.0;
            for (std::size_t r = 0; r < n; ++r)
                acc += z(r, i) * z(r, j);
            const double v = acc / static_cast<double>(n - 1);
            cov(i, j) = v;
            cov(j, i) = v;
        }
    }

    const auto eigen = linalg::eigenSymmetric(cov);
    components_ = eigen.eigenvectors;
    variances_ = eigen.eigenvalues;
    // Numerical noise can make tiny eigenvalues slightly negative.
    for (double &v : variances_)
        v = std::max(v, 0.0);
    fitted_ = true;
}

const std::vector<double> &
Pca::explainedVariance() const
{
    util::require(fitted_, "Pca: not fitted");
    return variances_;
}

std::vector<double>
Pca::explainedVarianceRatio() const
{
    util::require(fitted_, "Pca: not fitted");
    double total = 0.0;
    for (double v : variances_)
        total += v;
    std::vector<double> out(variances_.size(), 0.0);
    if (total > 0.0)
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = variances_[i] / total;
    return out;
}

std::size_t
Pca::componentsForVariance(double fraction) const
{
    util::require(fraction > 0.0 && fraction <= 1.0,
                  "Pca::componentsForVariance: fraction outside (0, 1]");
    const auto ratios = explainedVarianceRatio();
    double acc = 0.0;
    for (std::size_t k = 0; k < ratios.size(); ++k) {
        acc += ratios[k];
        if (acc >= fraction - 1e-12)
            return k + 1;
    }
    return ratios.size();
}

std::vector<double>
Pca::transform(const std::vector<double> &row, std::size_t k) const
{
    util::require(fitted_, "Pca: not fitted");
    util::require(row.size() == means_.size(),
                  "Pca::transform: feature count mismatch");
    util::require(k >= 1 && k <= means_.size(),
                  "Pca::transform: component count out of range");
    std::vector<double> out(k, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
        double acc = 0.0;
        for (std::size_t c = 0; c < row.size(); ++c)
            acc += components_(c, j) * (row[c] - means_[c]) / scales_[c];
        out[j] = acc;
    }
    return out;
}

linalg::Matrix
Pca::transform(const linalg::Matrix &x, std::size_t k) const
{
    linalg::Matrix out(x.rows(), k);
    for (std::size_t r = 0; r < x.rows(); ++r)
        out.setRow(r, transform(x.row(r), k));
    return out;
}

} // namespace dtrank::ml
