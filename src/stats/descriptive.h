/**
 * @file
 * Descriptive statistics over vectors of doubles.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace dtrank::stats
{

/** Arithmetic mean. Requires a non-empty input. */
double mean(const std::vector<double> &v);

/** Population variance (divide by n). Requires non-empty input. */
double variancePopulation(const std::vector<double> &v);

/** Sample variance (divide by n-1). Requires at least two elements. */
double varianceSample(const std::vector<double> &v);

/** Population standard deviation. */
double stddevPopulation(const std::vector<double> &v);

/** Sample standard deviation. */
double stddevSample(const std::vector<double> &v);

/** Smallest element. Requires non-empty input. */
double minimum(const std::vector<double> &v);

/** Largest element. Requires non-empty input. */
double maximum(const std::vector<double> &v);

/**
 * Quantile via linear interpolation between order statistics
 * (type-7 / numpy default). `q` must be in [0, 1].
 */
double quantile(std::vector<double> v, double q);

/** Geometric mean. All elements must be positive. */
double geometricMean(const std::vector<double> &v);

/** Index of the maximum element (first if tied). Requires non-empty. */
std::size_t argMax(const std::vector<double> &v);

/**
 * Running summary accumulator for aggregating experiment metrics:
 * tracks count, mean (Welford's running update), min and max.
 */
class Summary
{
  public:
    /** Adds one observation. */
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const;
    double min() const;
    double max() const;

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace dtrank::stats

