#include "ml/kmedoids.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/distance.h"
#include "util/error.h"

namespace dtrank::ml
{

namespace
{

/** Update iterations per run, at most. */
constexpr std::size_t kMaxIterations = 100;
/** Independent runs from fresh random medoids; the best cost wins. */
constexpr std::size_t kRestarts = 5;

} // namespace

KMedoidsResult
KMedoids::cluster(const std::vector<std::vector<double>> &points,
                  std::size_t k, util::Rng &rng) const
{
    return clusterFromDistances(pairwiseDistances(points), k, rng);
}

KMedoidsResult
KMedoids::clusterFromDistances(const std::vector<std::vector<double>> &dist,
                               std::size_t k, util::Rng &rng) const
{
    const std::size_t n = dist.size();
    util::require(n > 0, "KMedoids: empty point set");
    for (const auto &row : dist) {
        util::require(row.size() == n, "KMedoids: distance matrix must be "
                                       "square");
        // A NaN distance would make every cost comparison false, so no
        // restart ever wins and `best` stays empty — reject loudly.
        for (double d : row)
            util::require(std::isfinite(d),
                          "KMedoids: non-finite distance");
    }
    util::require(k >= 1 && k <= n, "KMedoids: k out of range");

    KMedoidsResult best;
    best.totalCost = std::numeric_limits<double>::infinity();

    for (std::size_t restart = 0; restart < kRestarts; ++restart) {
        KMedoidsResult run;
        run.medoids = rng.sampleWithoutReplacement(n, k);
        run.assignment.assign(n, 0);

        auto assign_all = [&]() {
            double cost = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                double bd = std::numeric_limits<double>::infinity();
                std::size_t bc = 0;
                for (std::size_t c = 0; c < k; ++c) {
                    const double d = dist[i][run.medoids[c]];
                    if (d < bd) {
                        bd = d;
                        bc = c;
                    }
                }
                run.assignment[i] = bc;
                // Summed in ascending point order:
                // dtrank-analyze-ignore(no-fp-accumulate)
                cost += bd;
            }
            return cost;
        };

        run.totalCost = assign_all();
        for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
            ++run.iterations;
            bool changed = false;

            // Update step: for each cluster pick the member minimizing
            // the total distance to the other members.
            for (std::size_t c = 0; c < k; ++c) {
                double best_cost =
                    std::numeric_limits<double>::infinity();
                std::size_t best_medoid = run.medoids[c];
                for (std::size_t i = 0; i < n; ++i) {
                    if (run.assignment[i] != c)
                        continue;
                    double cost = 0.0;
                    for (std::size_t j = 0; j < n; ++j) {
                        if (run.assignment[j] != c)
                            continue;
                        // Summed in ascending member order:
                        // dtrank-analyze-ignore(no-fp-accumulate)
                        cost += dist[i][j];
                    }
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_medoid = i;
                    }
                }
                if (best_medoid != run.medoids[c]) {
                    run.medoids[c] = best_medoid;
                    changed = true;
                }
            }

            const auto old_assignment = run.assignment;
            run.totalCost = assign_all();
            if (!changed && run.assignment == old_assignment) {
                run.converged = true;
                break;
            }
        }

        if (run.totalCost < best.totalCost)
            best = run;
    }

    // Canonical order: medoids sorted ascending, assignments remapped.
    std::vector<std::size_t> perm(k);
    for (std::size_t i = 0; i < k; ++i)
        perm[i] = i;
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
        return best.medoids[a] < best.medoids[b];
    });
    std::vector<std::size_t> inverse(k);
    std::vector<std::size_t> sorted_medoids(k);
    for (std::size_t newc = 0; newc < k; ++newc) {
        sorted_medoids[newc] = best.medoids[perm[newc]];
        inverse[perm[newc]] = newc;
    }
    best.medoids = sorted_medoids;
    for (std::size_t &a : best.assignment)
        a = inverse[a];
    return best;
}

} // namespace dtrank::ml
