/**
 * @file
 * Principal component analysis.
 *
 * The paper's related work (Section 7.2) describes PCA over program
 * characteristics as the standard way to identify similarities across
 * workloads (Eeckhout et al.). This module provides it for both uses
 * the repository has: visualizing/analyzing the benchmark
 * characteristic space and the machine performance space.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace dtrank::ml
{

/** Configuration of the PCA fit. */
struct PcaConfig
{
    /** Standardize columns to unit variance before the fit. */
    bool standardize = true;
};

/**
 * PCA via eigendecomposition of the (standardized) covariance matrix.
 */
class Pca
{
  public:
    explicit Pca(PcaConfig config = PcaConfig{});

    /**
     * Fits the components.
     *
     * @param x One row per observation; needs >= 2 rows, >= 1 column
     *          and finite entries (a NaN would poison the covariance).
     */
    void fit(const linalg::Matrix &x);

    bool fitted() const { return fitted_; }

    /** Variance along each component, descending. */
    const std::vector<double> &explainedVariance() const;

    /** Fraction of total variance per component (sums to 1). */
    std::vector<double> explainedVarianceRatio() const;

    /**
     * Smallest number of leading components whose cumulative explained
     * variance reaches `fraction` (in (0, 1]).
     */
    std::size_t componentsForVariance(double fraction) const;

    /** Projects one observation onto the first `k` components. */
    std::vector<double> transform(const std::vector<double> &row,
                                  std::size_t k) const;

    /** Projects every row of a matrix onto the first `k` components. */
    linalg::Matrix transform(const linalg::Matrix &x,
                             std::size_t k) const;

  private:
    PcaConfig config_;
    std::vector<double> means_;
    std::vector<double> scales_;
    linalg::Matrix components_;
    std::vector<double> variances_;
    bool fitted_ = false;
};

} // namespace dtrank::ml

