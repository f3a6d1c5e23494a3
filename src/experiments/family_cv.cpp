#include "experiments/family_cv.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"

namespace dtrank::experiments
{

core::PredictionMetrics
FamilyCvResults::pooledMetrics(Method m, const std::string &bench) const
{
    const auto it = cells.find(m);
    util::require(it != cells.end(),
                  "FamilyCvResults: method was not evaluated");
    std::vector<double> actual;
    std::vector<double> predicted;
    for (const FamilyCvCell &c : it->second) {
        if (c.task.benchmark != bench)
            continue;
        appendObservedPairs(c.task, actual, predicted);
    }
    util::require(!actual.empty(),
                  "FamilyCvResults: unknown benchmark '" + bench + "'");
    return core::evaluatePrediction(actual, predicted);
}

std::vector<core::PredictionMetrics>
FamilyCvResults::metricsOf(Method m) const
{
    std::vector<core::PredictionMetrics> out;
    out.reserve(benchmarks.size());
    for (const std::string &bench : benchmarks)
        out.push_back(pooledMetrics(m, bench));
    return out;
}

MetricAggregate
FamilyCvResults::rankAggregate(Method m) const
{
    return aggregateRankCorrelation(metricsOf(m));
}

MetricAggregate
FamilyCvResults::top1Aggregate(Method m) const
{
    return aggregateTop1Error(metricsOf(m));
}

MetricAggregate
FamilyCvResults::meanErrorAggregate(Method m) const
{
    return aggregateMeanError(metricsOf(m));
}

double
FamilyCvResults::benchmarkMeanRank(Method m, const std::string &bench) const
{
    return pooledMetrics(m, bench).rankCorrelation;
}

double
FamilyCvResults::benchmarkMeanTop1(Method m, const std::string &bench) const
{
    return pooledMetrics(m, bench).top1ErrorPercent;
}

FamilyCrossValidation::FamilyCrossValidation(const SplitEvaluator &evaluator,
                                             std::size_t min_family_size)
    : evaluator_(evaluator), min_family_size_(min_family_size)
{
    util::require(min_family_size_ >= 2,
                  "FamilyCrossValidation: min_family_size must be >= 2");
}

FamilyCvResults
FamilyCrossValidation::run(const std::vector<Method> &methods) const
{
    obs::TraceSpan span("family_cv_run", "protocol");
    const dataset::PerfDatabase &db = evaluator_.database();
    FamilyCvResults results;
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b)
        results.benchmarks.push_back(db.benchmark(b).name);

    // One processor family is held out as the target set; every
    // machine of the other families is available as a predictive
    // machine (Section 6.2: "we consider a single processor family
    // as the set of target machines, and we use the machines from
    // the other families as predictive machines").
    // Each split's tag (its index in evaluation order) pins its
    // per-task seeds, so evaluating the splits as one flat task set
    // reproduces the serial results bit for bit.
    std::vector<std::string> families;
    std::vector<SplitSpec> splits;
    for (const std::string &family : db.families()) {
        SplitSpec split;
        split.target = db.machineIndicesByFamily(family);
        if (split.target.size() < min_family_size_) {
            util::warn("family CV: skipping family '" + family +
                       "' with fewer than " +
                       std::to_string(min_family_size_) + " machines");
            continue;
        }
        for (std::size_t m = 0; m < db.machineCount(); ++m)
            if (db.machine(m).family != family)
                split.predictive.push_back(m);
        split.tag = splits.size();
        util::inform("family CV: target family '" + family + "' (" +
                     std::to_string(split.target.size()) + " machines)");
        families.push_back(family);
        splits.push_back(std::move(split));
    }
    util::require(!splits.empty(),
                  "FamilyCrossValidation: no usable target families");

    const std::vector<SplitResults> split_results =
        evaluator_.evaluateSplits(splits, methods);
    for (std::size_t i = 0; i < splits.size(); ++i) {
        results.families.push_back(families[i]);
        for (const auto &[method, tasks] : split_results[i]) {
            for (const TaskResult &task : tasks) {
                FamilyCvCell cell;
                cell.family = families[i];
                cell.task = task;
                results.cells[method].push_back(std::move(cell));
            }
        }
    }
    return results;
}

} // namespace dtrank::experiments
