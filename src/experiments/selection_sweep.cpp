#include "experiments/selection_sweep.h"

#include <cmath>

#include "core/selection.h"
#include "obs/trace.h"
#include "stats/correlation.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dtrank::experiments
{

namespace
{

/** Machines of this year are the targets. */
constexpr int kTargetYear = 2009;
/** Seed of the k-medoid and random selections. */
constexpr std::uint64_t kSeed = 1234;

} // namespace

SelectionSweep::SelectionSweep(const SplitEvaluator &evaluator,
                               SelectionSweepConfig config)
    : evaluator_(evaluator), config_(config)
{
    util::require(config_.maxK >= 1, "SelectionSweep: maxK must be >= 1");
    util::require(config_.randomDraws >= 1,
                  "SelectionSweep: randomDraws must be >= 1");
}

double
SelectionSweep::pooledR2(const std::vector<std::size_t> &predictive,
                         const std::vector<std::size_t> &targets,
                         std::uint64_t split_tag) const
{
    const SplitResults split = evaluator_.evaluateSplit(
        predictive, targets, {Method::MlpT}, split_tag);
    const auto &tasks = split.at(Method::MlpT);

    // Pool all predictions in log2 space so no single benchmark's
    // scale dominates the fit. Goodness of fit is the squared
    // correlation of predicted vs actual (the R^2 of the regression of
    // actual on predicted), which measures how well the predictions
    // explain the actual scores without penalizing a scale offset the
    // ranking application does not care about.
    std::vector<double> actual;
    std::vector<double> predicted;
    for (const TaskResult &t : tasks)
        appendObservedPairs(t, actual, predicted);
    for (std::size_t i = 0; i < actual.size(); ++i) {
        actual[i] = std::log2(actual[i]);
        predicted[i] = std::log2(std::max(predicted[i], 1e-9));
    }
    const double r = stats::pearson(actual, predicted);
    return r * r;
}

SelectionSweepResults
SelectionSweep::run() const
{
    obs::TraceSpan span("selection_sweep_run", "protocol");
    const dataset::PerfDatabase &db = evaluator_.database();
    const std::vector<std::size_t> targets =
        db.machineIndicesByYear(kTargetYear);
    const std::vector<std::size_t> candidates =
        db.machineIndicesBeforeYear(kTargetYear);
    util::require(targets.size() >= 2,
                  "SelectionSweep: needs >= 2 target machines");
    util::require(config_.maxK <= candidates.size(),
                  "SelectionSweep: maxK exceeds candidate count");

    // Phase 1 (serial): run the k-medoid clusterings and random draws
    // on the single seeded RNG in the exact order of the serial sweep,
    // recording one evaluation task per selected predictive set.
    struct SweepTask
    {
        std::vector<std::size_t> pick;
        std::uint64_t tag = 0;
    };
    const std::size_t per_k = 1 + config_.randomDraws;
    util::Rng rng(kSeed);
    std::uint64_t split_tag = 300;
    std::vector<SweepTask> sweep_tasks;
    sweep_tasks.reserve(config_.maxK * per_k);
    for (std::size_t k = 1; k <= config_.maxK; ++k) {
        util::inform("selection sweep: k = " + std::to_string(k));
        sweep_tasks.push_back(
            {core::selectMachinesByKMedoids(db, candidates, k, rng),
             split_tag++});
        for (std::size_t draw = 0; draw < config_.randomDraws; ++draw)
            sweep_tasks.push_back(
                {core::selectRandomMachines(candidates, k, rng),
                 split_tag++});
    }

    // Phase 2 (parallel): the expensive part — one split evaluation
    // per selected set, independent once the tags are fixed.
    const std::vector<double> r2 = util::parallelMap(
        evaluator_.config().parallel.threads, sweep_tasks.size(),
        [&](std::size_t i) {
            return pooledR2(sweep_tasks[i].pick, targets,
                            sweep_tasks[i].tag);
        });

    // Phase 3: assemble, averaging the random draws in draw order.
    SelectionSweepResults results;
    for (std::size_t k = 1; k <= config_.maxK; ++k) {
        const std::size_t base = (k - 1) * per_k;
        SelectionSweepPoint point;
        point.k = k;
        point.kmedoidsR2 = r2[base];
        double acc = 0.0;
        for (std::size_t draw = 0; draw < config_.randomDraws; ++draw)
            acc += r2[base + 1 + draw];
        point.randomR2 = acc / static_cast<double>(config_.randomDraws);
        results.points.push_back(point);
    }
    return results;
}

} // namespace dtrank::experiments
