/**
 * @file
 * Real-coded genetic algorithm. The GA-kNN baseline (Hoste et al.,
 * PACT 2006) uses a GA to learn how microarchitecture-independent
 * workload differences should be weighted so that characteristic-space
 * distance tracks performance difference; this module provides the
 * generic optimizer it builds on.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"

namespace dtrank::ml
{

/**
 * The budget of the genetic algorithm. Its operators' settings are
 * constants of genetic.cpp: crossover rate 0.9, per-gene mutation rate
 * 0.1 with a Gaussian of 0.1 x the gene range, tournaments of 3, 2
 * elites and BLX-0.3 crossover.
 */
struct GaConfig
{
    /** Individuals per generation; more than the 2 elites. */
    std::size_t populationSize = 50;
    std::size_t generations = 60;
};

/** Outcome of a GA run. */
struct GaResult
{
    /** Best genome found across all generations. */
    std::vector<double> bestGenome;
    /** Fitness of bestGenome. */
    double bestFitness = 0.0;
    /** Best fitness after each generation (monotone non-decreasing). */
    std::vector<double> history;
    /** Fitness evaluations actually executed. */
    std::size_t evaluations = 0;
    /**
     * Individuals whose score was carried forward instead of
     * evaluated: elites, and children bitwise equal to the parent they
     * were copied from. evaluations + carried is populationSize x
     * (generations + 1).
     */
    std::size_t carried = 0;
};

/**
 * Generational real-coded GA maximizing a user-supplied fitness
 * function over a box-constrained genome.
 *
 * Uses tournament selection, BLX-alpha blend crossover, Gaussian
 * mutation clipped to the bounds, and elitism. Deterministic given the
 * Rng.
 *
 * The fitness must be a pure function of the genome: a score the GA
 * already knows is carried forward rather than re-evaluated (elites,
 * and children that crossover, mutation and clipping left bitwise
 * equal to their parent), and each generation hands its remaining
 * genomes to the fitness as one batch.
 */
class GeneticAlgorithm
{
  public:
    /**
     * Scores a batch: writes the fitness of *genomes[i] to scores[i].
     * `span` is the trace span of the scoring pass, for the fitness
     * to annotate.
     */
    using BatchFitnessFn = std::function<void(
        const std::vector<const std::vector<double> *> &genomes,
        double *scores, obs::TraceSpan &span)>;

    /**
     * @param config Budget (validated on construction).
     * @param lower Per-gene lower bounds.
     * @param upper Per-gene upper bounds (elementwise > lower).
     */
    GeneticAlgorithm(GaConfig config, std::vector<double> lower,
                     std::vector<double> upper);

    /**
     * Runs the optimization.
     *
     * @param fitness Function to maximize; called once for the initial
     *        population and once per generation with the genomes whose
     *        score is not yet known, in population order (skipped when
     *        every score is known).
     * @param rng Randomness source.
     * @throws util::InvalidArgument when no score compared greater
     *         than -infinity (every fitness NaN or -inf), so there is
     *         no best genome to return.
     */
    GaResult optimize(const BatchFitnessFn &fitness, util::Rng &rng) const;

  private:
    std::vector<double> randomGenome(util::Rng &rng) const;
    void clip(std::vector<double> &genome) const;

    GaConfig config_;
    std::vector<double> lower_;
    std::vector<double> upper_;
};

} // namespace dtrank::ml

