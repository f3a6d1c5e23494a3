/**
 * @file
 * kNN^T: data transposition through multiple-proxy linear regression.
 *
 * The paper notes that a "(set of) predictive machine(s)" can serve as
 * the neighbourhood of a target machine. This extension generalizes
 * NN^T from the single best-fit predictive machine to the k best-fit
 * ones, combined in a ridge-regularized multiple regression: the target
 * machine's column is modelled as an affine combination of its k
 * nearest proxy columns, and the application of interest is predicted
 * from its scores on those proxies.
 */

#pragma once

#include <vector>

#include "core/transposition.h"

namespace dtrank::core
{

/** Configuration of the kNN^T predictor. */
struct MultiTranspositionConfig
{
    /** Number of proxy machines combined per target (>= 1). */
    std::size_t proxies = 3;
    /** Fit and predict in log2 performance space (ablation). */
    bool logSpace = false;
};

/** Diagnostics from the last predict() call. */
struct MultiTranspositionDiagnostics
{
    /** Chosen proxy machines per target machine, best fit first. */
    std::vector<std::vector<std::size_t>> chosenProxies;
    /** Multiple-regression R² per target machine. */
    std::vector<double> fitRSquared;
};

/** The kNN^T predictor. */
class MultiTransposition : public TranspositionPredictor
{
  public:
    explicit MultiTransposition(
        MultiTranspositionConfig config = MultiTranspositionConfig{});

    std::vector<double>
    predict(const TranspositionProblem &problem) override;

    std::string name() const override;

    /** Diagnostics for the most recent predict() call. */
    const MultiTranspositionDiagnostics &diagnostics() const
    {
        return diagnostics_;
    }

    const MultiTranspositionConfig &config() const { return config_; }

  private:
    MultiTranspositionConfig config_;
    MultiTranspositionDiagnostics diagnostics_;
};

} // namespace dtrank::core

