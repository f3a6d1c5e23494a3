#include "experiments/subset.h"

#include "core/selection.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dtrank::experiments
{

SubsetExperiment::SubsetExperiment(const SplitEvaluator &evaluator,
                                   SubsetExperimentConfig config)
    : evaluator_(evaluator), config_(std::move(config))
{
    util::require(!config_.subsetSizes.empty(),
                  "SubsetExperiment: no subset sizes");
    util::require(config_.draws >= 1, "SubsetExperiment: draws must be "
                                      ">= 1");
}

SubsetExperimentResults
SubsetExperiment::run(const std::vector<Method> &methods) const
{
    obs::TraceSpan span("subset_experiment_run", "protocol");
    const dataset::PerfDatabase &db = evaluator_.database();
    const std::vector<std::size_t> targets =
        db.machineIndicesByYear(config_.targetYear);
    const std::vector<std::size_t> candidates =
        db.machineIndicesByYear(config_.predictiveYear);
    util::require(targets.size() >= 2,
                  "SubsetExperiment: needs >= 2 target machines");

    SubsetExperimentResults results;
    results.subsetSizes = config_.subsetSizes;

    // Draw every predictive subset up front on the single seeded RNG
    // (preserving the serial draw order exactly), then evaluate the
    // resulting splits — which are independent — as one flat task set.
    util::Rng rng(config_.seed);
    std::uint64_t split_tag = 200;
    std::vector<std::size_t> size_index;
    std::vector<SplitSpec> draws;
    draws.reserve(config_.subsetSizes.size() * config_.draws);
    for (std::size_t si = 0; si < config_.subsetSizes.size(); ++si) {
        const std::size_t size = config_.subsetSizes[si];
        util::require(size >= 1 && size <= candidates.size(),
                      "SubsetExperiment: subset size out of range");
        util::inform("subset experiment: size " + std::to_string(size));
        for (std::size_t draw = 0; draw < config_.draws; ++draw) {
            size_index.push_back(si);
            draws.push_back(
                {core::selectRandomMachines(candidates, size, rng),
                 targets, split_tag++});
        }
    }

    const std::vector<SplitResults> split_results =
        evaluator_.evaluateSplits(draws, methods);

    // Accumulate in the original (size, draw) order so the averaging
    // arithmetic matches the serial run term for term.
    for (std::size_t si = 0; si < config_.subsetSizes.size(); ++si) {
        const std::size_t size = config_.subsetSizes[si];
        std::map<Method, SubsetCell> accum;
        for (std::size_t di = 0; di < draws.size(); ++di) {
            if (size_index[di] != si)
                continue;
            for (const auto &[method, tasks] : split_results[di]) {
                double rank = 0.0;
                double top1 = 0.0;
                double err = 0.0;
                for (const TaskResult &t : tasks) {
                    rank += t.metrics.rankCorrelation;
                    top1 += t.metrics.top1ErrorPercent;
                    err += t.metrics.meanErrorPercent;
                }
                const double n = static_cast<double>(tasks.size());
                accum[method].rankCorrelation += rank / n;
                accum[method].top1ErrorPercent += top1 / n;
                accum[method].meanErrorPercent += err / n;
            }
        }

        for (auto &[method, cell] : accum) {
            const double d = static_cast<double>(config_.draws);
            cell.rankCorrelation /= d;
            cell.top1ErrorPercent /= d;
            cell.meanErrorPercent /= d;
        }
        results.cells[size] = std::move(accum);
    }
    return results;
}

} // namespace dtrank::experiments
