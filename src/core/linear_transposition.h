/**
 * @file
 * NN^T: data transposition through best-fit simple linear regression
 * (Section 3.2.1 of the paper).
 *
 * For each target machine a y = a + b*x regression is fitted against
 * every predictive machine over the training benchmarks; the predictive
 * machine with the best fit — the target machine's "nearest neighbour"
 * in machine space — supplies the prediction for the application of
 * interest.
 */

#pragma once

#include <vector>

#include "core/transposition.h"

namespace dtrank::core
{

/**
 * Configuration of the NN^T predictor. The candidate with the lowest
 * residual sum of squares is the best fit (the paper's criterion); the
 * diagnostics still report its R².
 */
struct LinearTranspositionConfig
{
    /**
     * Fit and predict in log performance space. The paper regresses raw
     * SPEC ratios; log space is provided as an ablation (scores are
     * multiplicative in nature).
     */
    bool logSpace = false;
    /**
     * Worker threads for the scan (1 = serial, 0 = hardware
     * concurrency). Tiles write disjoint prediction/diagnostic slots,
     * so the thread count cannot change a bit of the output.
     */
    std::size_t threads = 1;
};

/** Diagnostics from the last predict() call. */
struct LinearTranspositionDiagnostics
{
    /** Chosen predictive machine per target machine. */
    std::vector<std::size_t> chosenPredictive;
    /** Fit R² of the chosen model per target machine. */
    std::vector<double> fitRSquared;
    /** Intercept of the chosen model per target machine. */
    std::vector<double> intercept;
    /** Slope of the chosen model per target machine. */
    std::vector<double> slope;
};

/**
 * The NN^T predictor. Stateless between calls apart from diagnostics
 * describing the most recent prediction.
 */
class LinearTransposition : public TranspositionPredictor
{
  public:
    explicit LinearTransposition(
        LinearTranspositionConfig config = LinearTranspositionConfig{})
        : config_(config)
    {
    }

    std::vector<double>
    predict(const TranspositionProblem &problem) override;

    std::string name() const override { return "NN^T"; }

    /** Diagnostics for the most recent predict() call. */
    const LinearTranspositionDiagnostics &diagnostics() const
    {
        return diagnostics_;
    }

  private:
    /**
     * Best-fit scan for ragged problems: each (target, predictive)
     * regression is fitted over the jointly observed benchmarks only
     * (compacted, then passed through SimpleLinearRegression), so an
     * all-valid mask reproduces the dense scan bit for bit. Candidates
     * need a valid app score and at least two joint points; targets
     * with no admissible candidate fall back to the observed mean.
     */
    std::vector<double>
    predictMasked(const TranspositionProblem &problem);

    LinearTranspositionConfig config_;
    LinearTranspositionDiagnostics diagnostics_;
};

} // namespace dtrank::core

