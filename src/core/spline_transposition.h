/**
 * @file
 * SPL^T: data transposition through best-fit spline regression.
 *
 * An extension beyond the paper's two models, instantiating the
 * framework with the model class its related-work section positions
 * between them (Lee and Brooks, ASPLOS'06): for each target machine a
 * restricted-cubic-spline curve is fitted against every predictive
 * machine over the training benchmarks; the best-fitting predictive
 * machine supplies the prediction. Identical protocol to NN^T, richer
 * per-pair model.
 */

#pragma once

#include <vector>

#include "core/transposition.h"

namespace dtrank::core
{

/** Diagnostics from the last predict() call. */
struct SplineTranspositionDiagnostics
{
    /** Chosen predictive machine per target machine. */
    std::vector<std::size_t> chosenPredictive;
    /** Fit R² of the chosen model per target machine. */
    std::vector<double> fitRSquared;
};

/**
 * The SPL^T predictor. Each spline has 4 knots, fewer when the data
 * cannot support them.
 */
class SplineTransposition : public TranspositionPredictor
{
  public:
    std::vector<double>
    predict(const TranspositionProblem &problem) override;

    std::string name() const override { return "SPL^T"; }

    /** Diagnostics for the most recent predict() call. */
    const SplineTranspositionDiagnostics &diagnostics() const
    {
        return diagnostics_;
    }

  private:
    SplineTranspositionDiagnostics diagnostics_;
};

} // namespace dtrank::core

