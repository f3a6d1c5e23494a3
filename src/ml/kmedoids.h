/**
 * @file
 * k-medoids clustering (PAM-style). The paper uses k-medoid clustering
 * over the machine space to select a diverse set of predictive machines
 * (Section 6.5, Figure 8): the cluster centers become the predictive
 * machines.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace dtrank::ml
{

/** Result of a k-medoids run. */
struct KMedoidsResult
{
    /** Indices of the k medoids into the input point set. */
    std::vector<std::size_t> medoids;
    /** assignment[i] is the position (0..k-1) of point i's medoid. */
    std::vector<std::size_t> assignment;
    /** Total within-cluster distance at convergence. */
    double totalCost = 0.0;
    /** Number of update iterations executed. */
    std::size_t iterations = 0;
    /** True when the run stopped because assignments were stable. */
    bool converged = false;
};

/**
 * Voronoi-iteration k-medoids: random initial medoids, alternate
 * assignment and per-cluster medoid update until membership stabilizes
 * or 100 iterations have run. Five independent restarts; the best-cost
 * run wins. Deterministic given the Rng seed.
 */
class KMedoids
{
  public:
    /**
     * Clusters points into k groups by Euclidean distance.
     *
     * @param points Feature vectors (machines' benchmark-score columns).
     * @param k Number of clusters, 1 <= k <= points.size().
     * @param rng Randomness source for initialization.
     */
    KMedoidsResult cluster(const std::vector<std::vector<double>> &points,
                           std::size_t k, util::Rng &rng) const;

    /**
     * Clusters from a precomputed symmetric distance matrix.
     */
    KMedoidsResult clusterFromDistances(
        const std::vector<std::vector<double>> &dist, std::size_t k,
        util::Rng &rng) const;
};

} // namespace dtrank::ml

