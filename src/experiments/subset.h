/**
 * @file
 * Limited-predictive-machines experiment (Section 6.4, Table 4 of the
 * paper): predicting the 2009 machines from random subsets of 10, 5 and
 * 3 of the 2008 machines, testing how gracefully each method degrades
 * when the user owns only a handful of machines.
 */

#pragma once

#include <map>
#include <vector>

#include "experiments/harness.h"

namespace dtrank::experiments
{

/**
 * Configuration of the subset experiment. The targets are the 2009
 * machines and the subsets are drawn from the 2008 machines, as in the
 * paper.
 */
struct SubsetExperimentConfig
{
    /** Subset sizes to evaluate (the paper uses 10, 5 and 3). */
    std::vector<std::size_t> subsetSizes = {10, 5, 3};
    /** Random draws per subset size, averaged. */
    std::size_t draws = 5;
};

/** Averaged metrics for one (subset size, method) table cell. */
struct SubsetCell
{
    double rankCorrelation = 0.0;
    double top1ErrorPercent = 0.0;
    double meanErrorPercent = 0.0;
};

/** Full results of the subset experiment. */
struct SubsetExperimentResults
{
    std::vector<std::size_t> subsetSizes;
    /** results[size][method] = averaged metrics over draws. */
    std::map<std::size_t, std::map<Method, SubsetCell>> cells;
};

/** The Table 4 protocol driver. */
class SubsetExperiment
{
  public:
    SubsetExperiment(const SplitEvaluator &evaluator,
                     SubsetExperimentConfig config =
                         SubsetExperimentConfig{});

    SubsetExperimentResults run(const std::vector<Method> &methods) const;

  private:
    const SplitEvaluator &evaluator_;
    SubsetExperimentConfig config_;
};

} // namespace dtrank::experiments

