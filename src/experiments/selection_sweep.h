/**
 * @file
 * Predictive-machine selection sweep (Section 6.5, Figure 8 of the
 * paper): compares k-medoid clustering against random selection for
 * choosing 1..10 predictive machines, measured by the goodness of fit
 * R² of MLP^T predictions pooled over all held-out benchmarks and
 * target machines.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "experiments/harness.h"

namespace dtrank::experiments
{

/**
 * Configuration of the selection sweep. The targets are the 2009
 * machines, the predictive machines are selected from every machine
 * released before 2009 (the pool that matches the paper's example
 * selection: an Intel Core 2, a Pentium D Presler, a Xeon and a
 * SPARC64 when picking four machines), and the fit measured is
 * MLP^T's, as in the paper.
 */
struct SelectionSweepConfig
{
    /** Largest number of predictive machines swept (1..maxK). */
    std::size_t maxK = 10;
    /** Random draws averaged per k (the paper uses 50). */
    std::size_t randomDraws = 50;
};

/** One point of Figure 8. */
struct SelectionSweepPoint
{
    std::size_t k = 0;
    /** R² with k-medoid-selected predictive machines. */
    double kmedoidsR2 = 0.0;
    /** R² averaged over random selections. */
    double randomR2 = 0.0;
};

/** Full results of the sweep: one point per k. */
struct SelectionSweepResults
{
    std::vector<SelectionSweepPoint> points;
};

/** The Figure 8 protocol driver. */
class SelectionSweep
{
  public:
    SelectionSweep(const SplitEvaluator &evaluator,
                   SelectionSweepConfig config = SelectionSweepConfig{});

    SelectionSweepResults run() const;

    /**
     * Pooled goodness of fit: R² of predicted vs actual scores in log2
     * space, pooled over every (benchmark, target machine) pair of a
     * split evaluated with MLP^T.
     */
    double pooledR2(const std::vector<std::size_t> &predictive,
                    const std::vector<std::size_t> &targets,
                    std::uint64_t split_tag) const;

  private:
    const SplitEvaluator &evaluator_;
    SelectionSweepConfig config_;
};

} // namespace dtrank::experiments

