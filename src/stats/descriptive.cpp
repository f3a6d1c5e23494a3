#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "simd/simd.h"
#include "util/error.h"

namespace dtrank::stats
{

double
mean(const std::vector<double> &v)
{
    util::require(!v.empty(), "mean: empty input");
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

double
variancePopulation(const std::vector<double> &v)
{
    util::require(!v.empty(), "variancePopulation: empty input");
    const double m = mean(v);
    double acc = 0.0;
    for (double x : v)
        acc += (x - m) * (x - m);
    return acc / static_cast<double>(v.size());
}

double
varianceSample(const std::vector<double> &v)
{
    util::require(v.size() >= 2, "varianceSample: needs >= 2 elements");
    const double m = mean(v);
    double acc = 0.0;
    for (double x : v)
        acc += (x - m) * (x - m);
    return acc / static_cast<double>(v.size() - 1);
}

double
stddevPopulation(const std::vector<double> &v)
{
    return std::sqrt(variancePopulation(v));
}

double
stddevSample(const std::vector<double> &v)
{
    return std::sqrt(varianceSample(v));
}

double
minimum(const std::vector<double> &v)
{
    util::require(!v.empty(), "minimum: empty input");
    return *std::min_element(v.begin(), v.end());
}

double
maximum(const std::vector<double> &v)
{
    util::require(!v.empty(), "maximum: empty input");
    return *std::max_element(v.begin(), v.end());
}

double
quantile(std::vector<double> v, double q)
{
    util::require(!v.empty(), "quantile: empty input");
    util::require(q >= 0.0 && q <= 1.0, "quantile: q outside [0, 1]");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
geometricMean(const std::vector<double> &v)
{
    util::require(!v.empty(), "geometricMean: empty input");
    double acc = 0.0;
    for (double x : v) {
        util::require(x > 0.0, "geometricMean: non-positive element");
        acc += std::log(x);
    }
    return simd::exp(acc / static_cast<double>(v.size()));
}

std::size_t
argMax(const std::vector<double> &v)
{
    util::require(!v.empty(), "argMax: empty input");
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

void
Summary::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
}

double
Summary::mean() const
{
    util::require(count_ > 0, "Summary::mean: no observations");
    return mean_;
}

double
Summary::min() const
{
    util::require(count_ > 0, "Summary::min: no observations");
    return min_;
}

double
Summary::max() const
{
    util::require(count_ > 0, "Summary::max: no observations");
    return max_;
}

} // namespace dtrank::stats
