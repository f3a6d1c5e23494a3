#include "core/selection.h"

#include <algorithm>
#include <cmath>

#include "ml/kmedoids.h"
#include "ml/normalizer.h"
#include "util/error.h"

namespace dtrank::core
{

std::vector<std::size_t>
selectRandomMachines(const std::vector<std::size_t> &candidates,
                     std::size_t k, util::Rng &rng)
{
    util::require(k >= 1 && k <= candidates.size(),
                  "selectRandomMachines: k out of range");
    const auto picks = rng.sampleWithoutReplacement(candidates.size(), k);
    std::vector<std::size_t> out(k);
    for (std::size_t i = 0; i < k; ++i)
        out[i] = candidates[picks[i]];
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::vector<double>>
machineFeatureVectors(const dataset::PerfDatabase &db,
                      const std::vector<std::size_t> &machines)
{
    util::require(!machines.empty(),
                  "machineFeatureVectors: empty machine set");

    // Owned-set selection is a heuristic over machine signatures, not
    // a model: under missingness the NaN-poisoned cells are imputed
    // with their benchmark's observed mean so the log2 features stay
    // finite. Training and metrics still see the true mask. A
    // materialized all-valid mask imputes nothing, so the features —
    // and the selection — are bit-identical to the dense database's.
    if (db.masked())
        return machineFeatureVectors(dataset::imputeObserved(db),
                                     machines);

    // Rows = machines, columns = benchmarks, in log2 space. The
    // per-machine mean is removed so the features describe each
    // machine's architectural signature (which benchmarks it is
    // relatively good at) rather than its overall speed — otherwise
    // k-medoids merely segments the speed axis and picks similar
    // microarchitectures at different clocks.
    linalg::Matrix features(machines.size(), db.benchmarkCount());
    std::vector<double> scores;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        db.machineScoresInto(machines[i], scores);
        double mean = 0.0;
        for (double s : scores)
            mean += std::log2(s);
        mean /= static_cast<double>(scores.size());
        for (std::size_t b = 0; b < scores.size(); ++b)
            features(i, b) = std::log2(scores[b]) - mean;
    }

    ml::StandardNormalizer norm;
    norm.fit(features);
    const linalg::Matrix z = norm.transform(features);

    std::vector<std::vector<double>> out(machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i)
        out[i] = z.row(i);
    return out;
}

std::vector<std::size_t>
selectMachinesByKMedoids(const dataset::PerfDatabase &db,
                         const std::vector<std::size_t> &candidates,
                         std::size_t k, util::Rng &rng)
{
    util::require(k >= 1 && k <= candidates.size(),
                  "selectMachinesByKMedoids: k out of range");

    const auto points = machineFeatureVectors(db, candidates);
    const ml::KMedoids clusterer;
    const ml::KMedoidsResult result = clusterer.cluster(points, k, rng);

    std::vector<std::size_t> out;
    out.reserve(k);
    for (std::size_t medoid : result.medoids)
        out.push_back(candidates[medoid]);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace dtrank::core
