/**
 * @file
 * GA-kNN, the prior-art baseline of Hoste et al. (PACT 2006) the paper
 * compares against (referred to as GA-kNN / GA-10NN in Section 6).
 *
 * The method works in workload space: each benchmark is described by
 * microarchitecture-independent characteristics; a genetic algorithm
 * learns per-characteristic weights so that weighted distance in
 * characteristic space tracks performance difference; the performance
 * of an application of interest on a target machine is then predicted
 * from the scores of its k = 10 nearest benchmarks on that machine.
 * Unlike data transposition it needs no measurements on predictive
 * machines at prediction time — but it inherits the weakness the paper
 * demonstrates: applications dissimilar to every benchmark (outliers)
 * have no informative neighbours.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "dataset/masked_matrix.h"
#include "linalg/matrix.h"
#include "ml/genetic.h"

namespace dtrank::ml
{

/** How the k nearest neighbours' scores are combined. */
enum class KnnWeighting
{
    Uniform,         ///< Plain mean of the k scores.
    InverseDistance  ///< Weights 1/(d + eps).
};

} // namespace dtrank::ml

namespace dtrank::baseline
{

/** Configuration of the GA-kNN baseline. */
struct GaKnnConfig
{
    /** Number of nearest-neighbour benchmarks (the paper uses 10). */
    std::size_t k = 10;
    /** How neighbour scores are combined. */
    ml::KnnWeighting weighting = ml::KnnWeighting::Uniform;
    /** Genetic algorithm hyperparameters. */
    ml::GaConfig ga;
    /** Seed for the GA's randomness. */
    std::uint64_t seed = 42;
    /**
     * Worker threads for the predictApp target sweep (1 = serial,
     * 0 = hardware concurrency). Tiles are disjoint, so the thread
     * count cannot change a bit of the output.
     */
    std::size_t predictThreads = 1;
    /** Target machines per predictApp sweep tile. */
    std::size_t predictTile = 4096;
};

/**
 * The GA-kNN training objective, scored for a whole GA population at
 * once. A genome's fitness is the negative mean relative error (%) of
 * leave-one-benchmark-out kNN prediction of the training scores, the
 * neighbours of benchmark i being the k other benchmarks nearest in
 * genome-weighted squared characteristic distance (ties to the lower
 * index). Masked training cells are skipped as held-out cells and
 * dropped, with renormalization, as neighbour scores.
 *
 * evaluate() returns, genome by genome, exactly the bits of the
 * per-genome formulation (distance row by simd::dot, partial_sort,
 * per-machine combine, one (i, m)-ordered error sum), while sharing
 * the work the population has in common: per held-out benchmark i,
 * one canonical-dot GEMM gives every genome's distances (genomes as
 * the vector lanes), and genomes whose ordered neighbour lists agree
 * (and, under InverseDistance, their distances) share one neighbour
 * sweep and one set of error terms.
 *
 * Holds references to its inputs; they must outlive it. One instance
 * is not safe for concurrent evaluate() calls (it owns its scratch).
 */
class GaKnnFitness
{
  public:
    /**
     * @param characteristics One row per benchmark (B x C, finite).
     * @param train_scores Benchmark scores on the training machines
     *        (B x M); every observed cell must be finite and positive.
     * @param k Neighbours per prediction (>= 1; capped at B - 1).
     * @param weighting How neighbour scores combine.
     * @param scores_mask Optional validity mask over train_scores;
     *        nullptr or an all-valid mask is the dense fitness.
     * @throws util::InvalidArgument on a shape mismatch, a non-finite
     *         characteristic, or a non-finite or non-positive observed
     *         training score.
     */
    GaKnnFitness(const linalg::Matrix &characteristics,
                 const linalg::Matrix &train_scores, std::size_t k,
                 ml::KnnWeighting weighting,
                 const dataset::ScoreMask *scores_mask = nullptr);

    /**
     * Writes the fitness of *genomes[g] to scores[g].
     *
     * @return The number of distinct neighbour lists, summed over the
     *         held-out benchmarks (how many neighbour sweeps ran).
     * @throws util::InvalidArgument when a genome's neighbours observe
     *         no held-out cell (only possible under a mask).
     */
    std::size_t
    evaluate(const std::vector<const std::vector<double> *> &genomes,
             double *scores);

  private:
    /**
     * Error terms of held-out benchmark i over machines [lo, hi) with
     * neighbours `nn` (distances `nn_d2`), +0.0 where no term counts.
     * @return How many terms count.
     */
    std::size_t groupTerms(std::size_t i, const std::size_t *nn,
                           const double *nn_d2, std::size_t lo,
                           std::size_t hi, double *terms);

    /** Every genome's k nearest candidates of benchmark i into nn_. */
    void nearest(std::size_t i, std::size_t n);

    const linalg::Matrix &chars_;
    const linalg::Matrix &scores_;
    const dataset::ScoreMask *mask_; ///< nullptr when dense.
    std::size_t k_;
    ml::KnnWeighting weighting_;

    // Scratch, sized per evaluate(); n genomes, B benchmarks, C
    // characteristics, T machines per tile.
    std::vector<double> wt_;         ///< Genomes, feature-major (C x n).
    std::vector<double> slab_;       ///< Squared differences (B-1 x C).
    std::vector<double> zero_;       ///< Zero bias for the GEMM (B-1).
    std::vector<double> d2_;         ///< Distances (B-1 x n).
    std::vector<std::size_t> order_; ///< Candidate visiting order (B-1).
    std::vector<std::size_t> nn_;    ///< Neighbour lists (n x k).
    std::vector<double> nn_d2_;      ///< Their distances (n x k).
    std::vector<std::uint64_t> hash_;     ///< List hashes (n).
    std::vector<std::size_t> group_of_;   ///< Group of each genome (n).
    std::vector<std::size_t> leaders_;    ///< First genome per group.
    std::vector<std::size_t> group_count_; ///< Terms per group.
    std::vector<double> err_;        ///< Error sum per genome (n).
    std::vector<std::size_t> count_; ///< Term count per genome (n).
    std::vector<double> num_;        ///< Combine numerators (T).
    std::vector<double> den_;        ///< Masked denominators (T).
    std::vector<double> terms_;      ///< Error terms per group (n x T).
    std::vector<double> weight_;     ///< Neighbour weights (k).
};

/**
 * A trained GA-kNN model: learned characteristic weights plus the
 * machinery to predict an application's score on arbitrary machines
 * from its characteristic vector.
 */
class GaKnnModel
{
  public:
    explicit GaKnnModel(GaKnnConfig config = GaKnnConfig{});

    /**
     * Learns the characteristic weights.
     *
     * @param characteristics One row per benchmark (B x C).
     * @param train_scores Benchmark scores on the training machines
     *        (B x M). The GA maximizes leave-one-benchmark-out kNN
     *        prediction accuracy on these machines (GaKnnFitness).
     * @param scores_mask Optional validity mask over train_scores
     *        (benchmarks x machines). Unobserved (i, m) cells are
     *        skipped by the leave-one-out fitness and unobserved
     *        neighbour scores are dropped (with renormalization) from
     *        each prediction. nullptr or an all-valid mask reproduces
     *        the dense fitness — and therefore the GA trajectory and
     *        the learned weights — bit for bit. Characteristics are
     *        never masked: they describe benchmarks, not measurements
     *        on machines.
     * @throws util::InvalidArgument on fewer than 2 benchmarks, no
     *         characteristic or machine, a shape mismatch, a
     *         non-finite characteristic, or a non-finite or
     *         non-positive observed training score.
     */
    void train(const linalg::Matrix &characteristics,
               const linalg::Matrix &train_scores,
               const dataset::ScoreMask *scores_mask = nullptr);

    /**
     * Installs previously learned weights without re-running the GA,
     * e.g. to predict with one trained model under another
     * configuration's prediction settings. The pair must come from a
     * train() call with identical training configuration and data.
     */
    void restore(std::vector<double> weights, double training_fitness);

    /** True once train() or restore() has completed. */
    bool trained() const { return trained_; }

    /** The learned per-characteristic weights. */
    const std::vector<double> &weights() const;

    /** Best GA fitness (negative mean relative error, %). */
    double trainingFitness() const;

    /** Sentinel for the exclude-row parameters: exclude nothing. */
    static constexpr std::size_t kNoExclude =
        static_cast<std::size_t>(-1);

    /**
     * Indices (into `candidate_chars` rows) of the k benchmarks nearest
     * to the application, closest first.
     *
     * @param exclude_row Optional candidate row left out of the
     *        neighbour search — the copy-free leave-one-out path: pass
     *        the application's own row instead of materializing an
     *        (N-1)-row submatrix per held-out benchmark.
     */
    std::vector<std::size_t>
    neighbors(const std::vector<double> &app_characteristics,
              const linalg::Matrix &candidate_chars,
              std::size_t exclude_row = kNoExclude) const;

    /**
     * Predicts the application's score on each machine.
     *
     * @param app_characteristics Characteristic vector of the
     *        application of interest.
     * @param candidate_chars Characteristics of the candidate
     *        neighbour benchmarks (N x C).
     * @param candidate_scores Scores of those benchmarks on the
     *        machines of interest (N x T).
     * @param exclude_row Optional row excluded from the neighbour
     *        candidates (see neighbors()); row indices of
     *        candidate_chars and candidate_scores must align.
     * @param scores_mask Optional validity mask over candidate_scores.
     *        Per machine, unobserved neighbour scores are dropped and
     *        the combine renormalized over the observed ones; a
     *        machine where no neighbour is observed falls back to its
     *        column's observed mean. nullptr or an all-valid mask is
     *        bit-identical to the dense path.
     * @return One predicted score per machine (T).
     */
    std::vector<double>
    predictApp(const std::vector<double> &app_characteristics,
               const linalg::Matrix &candidate_chars,
               const linalg::Matrix &candidate_scores,
               std::size_t exclude_row = kNoExclude,
               const dataset::ScoreMask *scores_mask = nullptr) const;

    const GaKnnConfig &config() const { return config_; }

  private:
    GaKnnConfig config_;
    std::vector<double> weights_;
    double training_fitness_ = 0.0;
    bool trained_ = false;
};

} // namespace dtrank::baseline

