/**
 * @file
 * Feature normalization. WEKA's MultilayerPerceptron normalizes
 * attributes (and a numeric class) to [-1, 1] by default; RangeNormalizer
 * replicates that. StandardNormalizer (z-score) is provided for the
 * distance-based learners.
 */

#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace dtrank::ml
{

/**
 * Per-feature affine map onto [-1, 1] fitted on training data.
 *
 * Constant features map to 0. Values outside the training range
 * extrapolate linearly (as WEKA does).
 */
class RangeNormalizer
{
  public:
    RangeNormalizer() = default;

    /** Learns per-column min/max from the training matrix. */
    void fit(const linalg::Matrix &x);

    /** Learns min/max of a single series (for targets). */
    void fitSeries(const std::vector<double> &values);

    /**
     * Adopts per-feature ranges the caller swept itself, e.g. over
     * data held feature-major or spread over several sources. Equal
     * to fit() on a matrix whose column c has minimum mins[c] and
     * maximum maxs[c].
     */
    void setRanges(std::vector<double> mins, std::vector<double> maxs);

    /**
     * The normalizer of the given features alone, in the given order:
     * feature i of the result is feature features[i] of this one.
     */
    RangeNormalizer
    selectFeatures(const std::vector<std::size_t> &features) const;

    /** Maps one row of raw features into [-1, 1] coordinates. */
    std::vector<double> transform(const std::vector<double> &row) const;

    /** Maps a whole matrix. */
    linalg::Matrix transform(const linalg::Matrix &x) const;

    /**
     * Maps n values of feature c (one row of a feature-major matrix):
     * out[i] = the transform of in[i]. `out` may equal `in` (in-place
     * normalization); same per-element expression as transform().
     */
    void transformFeature(std::size_t c, const double *in, double *out,
                          std::size_t n) const;

    /** Maps one scalar through the single-series normalization. */
    double transformScalar(double value) const;

    /** Inverse of transformScalar. */
    double inverseTransformScalar(double value) const;

    /** Number of fitted features (1 after fitSeries). */
    std::size_t featureCount() const { return mins_.size(); }

    bool fitted() const { return !mins_.empty(); }

  private:
    std::vector<double> mins_;
    std::vector<double> maxs_;
};

/**
 * Per-feature z-score normalization (subtract mean, divide by sample
 * stddev). Constant features map to 0.
 */
class StandardNormalizer
{
  public:
    StandardNormalizer() = default;

    /** Learns per-column mean/stddev from the training matrix. */
    void fit(const linalg::Matrix &x);

    /** Maps one row of raw features into z-scores. */
    std::vector<double> transform(const std::vector<double> &row) const;

    /** Maps a whole matrix. */
    linalg::Matrix transform(const linalg::Matrix &x) const;

    std::size_t featureCount() const { return means_.size(); }
    bool fitted() const { return !means_.empty(); }

    const std::vector<double> &means() const { return means_; }
    const std::vector<double> &stddevs() const { return stddevs_; }

  private:
    std::vector<double> means_;
    std::vector<double> stddevs_;
};

} // namespace dtrank::ml

