#include "ml/normalizer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/descriptive.h"
#include "util/error.h"

namespace dtrank::ml
{

void
RangeNormalizer::fit(const linalg::Matrix &x)
{
    util::require(x.rows() > 0 && x.cols() > 0,
                  "RangeNormalizer::fit: empty matrix");
    mins_.assign(x.cols(), 0.0);
    maxs_.assign(x.cols(), 0.0);
    for (std::size_t c = 0; c < x.cols(); ++c) {
        double lo = x(0, c);
        double hi = x(0, c);
        for (std::size_t r = 1; r < x.rows(); ++r) {
            lo = std::min(lo, x(r, c));
            hi = std::max(hi, x(r, c));
        }
        mins_[c] = lo;
        maxs_[c] = hi;
    }
}

void
RangeNormalizer::fitSeries(const std::vector<double> &values)
{
    util::require(!values.empty(), "RangeNormalizer::fitSeries: empty "
                                   "input");
    mins_ = {stats::minimum(values)};
    maxs_ = {stats::maximum(values)};
}

void
RangeNormalizer::setRanges(std::vector<double> mins,
                           std::vector<double> maxs)
{
    util::require(!mins.empty() && mins.size() == maxs.size(),
                  "RangeNormalizer::setRanges: need one min and one max "
                  "per feature");
    mins_ = std::move(mins);
    maxs_ = std::move(maxs);
}

RangeNormalizer
RangeNormalizer::selectFeatures(const std::vector<std::size_t> &features) const
{
    util::require(fitted(), "RangeNormalizer: not fitted");
    RangeNormalizer out;
    out.mins_.reserve(features.size());
    out.maxs_.reserve(features.size());
    for (std::size_t f : features) {
        util::require(f < mins_.size(),
                      "RangeNormalizer::selectFeatures: no such feature");
        out.mins_.push_back(mins_[f]);
        out.maxs_.push_back(maxs_[f]);
    }
    return out;
}

std::vector<double>
RangeNormalizer::transform(const std::vector<double> &row) const
{
    util::require(fitted(), "RangeNormalizer: not fitted");
    util::require(row.size() == mins_.size(),
                  "RangeNormalizer::transform: feature count mismatch");
    std::vector<double> out(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
        const double span = maxs_[c] - mins_[c];
        out[c] = span == 0.0
                     ? 0.0
                     : 2.0 * (row[c] - mins_[c]) / span - 1.0;
    }
    return out;
}

linalg::Matrix
RangeNormalizer::transform(const linalg::Matrix &x) const
{
    util::require(fitted(), "RangeNormalizer: not fitted");
    util::require(x.cols() == mins_.size(),
                  "RangeNormalizer::transform: feature count mismatch");
    // Written straight into the output matrix: the MLP normalizes its
    // training matrix on every fit, and the per-row temporaries of the
    // vector overload would dominate a warm-workspace fit's allocation
    // count. Same per-element expression, so results are unchanged.
    linalg::Matrix out(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *in = x.rowData(r);
        double *o = out.rowData(r);
        for (std::size_t c = 0; c < x.cols(); ++c) {
            const double span = maxs_[c] - mins_[c];
            o[c] = span == 0.0
                       ? 0.0
                       : 2.0 * (in[c] - mins_[c]) / span - 1.0;
        }
    }
    return out;
}

void
RangeNormalizer::transformFeature(std::size_t c, const double *in,
                                  double *out, std::size_t n) const
{
    util::require(c < mins_.size(),
                  "RangeNormalizer::transformFeature: no such feature");
    const double lo = mins_[c];
    const double span = maxs_[c] - lo;
    if (span == 0.0) {
        std::fill_n(out, n, 0.0);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i] = 2.0 * (in[i] - lo) / span - 1.0;
}

double
RangeNormalizer::transformScalar(double value) const
{
    util::require(mins_.size() == 1,
                  "RangeNormalizer::transformScalar: not fitted on a "
                  "series");
    const double span = maxs_[0] - mins_[0];
    return span == 0.0 ? 0.0 : 2.0 * (value - mins_[0]) / span - 1.0;
}

double
RangeNormalizer::inverseTransformScalar(double value) const
{
    util::require(mins_.size() == 1,
                  "RangeNormalizer::inverseTransformScalar: not fitted on "
                  "a series");
    const double span = maxs_[0] - mins_[0];
    if (span == 0.0)
        return mins_[0];
    return (value + 1.0) * 0.5 * span + mins_[0];
}

void
StandardNormalizer::fit(const linalg::Matrix &x)
{
    util::require(x.rows() > 0 && x.cols() > 0,
                  "StandardNormalizer::fit: empty matrix");
    means_.assign(x.cols(), 0.0);
    stddevs_.assign(x.cols(), 0.0);
    for (std::size_t c = 0; c < x.cols(); ++c) {
        const std::vector<double> col = x.column(c);
        means_[c] = stats::mean(col);
        stddevs_[c] = x.rows() >= 2 ? stats::stddevSample(col) : 0.0;
    }
}

std::vector<double>
StandardNormalizer::transform(const std::vector<double> &row) const
{
    util::require(fitted(), "StandardNormalizer: not fitted");
    util::require(row.size() == means_.size(),
                  "StandardNormalizer::transform: feature count mismatch");
    std::vector<double> out(row.size());
    for (std::size_t c = 0; c < row.size(); ++c)
        out[c] = stddevs_[c] == 0.0
                     ? 0.0
                     : (row[c] - means_[c]) / stddevs_[c];
    return out;
}

linalg::Matrix
StandardNormalizer::transform(const linalg::Matrix &x) const
{
    util::require(fitted(), "StandardNormalizer: not fitted");
    util::require(x.cols() == means_.size(),
                  "StandardNormalizer::transform: feature count mismatch");
    linalg::Matrix out(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *in = x.rowData(r);
        double *o = out.rowData(r);
        for (std::size_t c = 0; c < x.cols(); ++c)
            o[c] = stddevs_[c] == 0.0
                       ? 0.0
                       : (in[c] - means_[c]) / stddevs_[c];
    }
    return out;
}

} // namespace dtrank::ml
