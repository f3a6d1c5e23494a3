#include "experiments/future.h"

#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"

namespace dtrank::experiments
{

namespace
{

std::vector<core::PredictionMetrics>
flatten(const std::map<Method, std::vector<TaskResult>> &tasks, Method m)
{
    const auto it = tasks.find(m);
    util::require(it != tasks.end(),
                  "EraResults: method was not evaluated");
    std::vector<core::PredictionMetrics> out;
    out.reserve(it->second.size());
    for (const TaskResult &t : it->second)
        out.push_back(t.metrics);
    return out;
}

} // namespace

MetricAggregate
EraResults::rankAggregate(Method m) const
{
    return aggregateRankCorrelation(flatten(tasks, m));
}

MetricAggregate
EraResults::top1Aggregate(Method m) const
{
    return aggregateTop1Error(flatten(tasks, m));
}

MetricAggregate
EraResults::meanErrorAggregate(Method m) const
{
    return aggregateMeanError(flatten(tasks, m));
}

FuturePrediction::FuturePrediction(const SplitEvaluator &evaluator,
                                   int target_year)
    : evaluator_(evaluator), target_year_(target_year)
{
}

FuturePredictionResults
FuturePrediction::run(const std::vector<Method> &methods) const
{
    obs::TraceSpan span("future_prediction_run", "protocol");
    const dataset::PerfDatabase &db = evaluator_.database();
    FuturePredictionResults results;
    results.targetMachines = db.machineIndicesByYear(target_year_);
    util::require(results.targetMachines.size() >= 2,
                  "FuturePrediction: needs >= 2 target machines in year " +
                      std::to_string(target_year_));

    struct EraSpec
    {
        std::string label;
        std::vector<std::size_t> machines;
    };
    std::vector<EraSpec> eras;
    eras.push_back({std::to_string(target_year_ - 1),
                    db.machineIndicesByYear(target_year_ - 1)});
    eras.push_back({std::to_string(target_year_ - 2),
                    db.machineIndicesByYear(target_year_ - 2)});
    eras.push_back({"older", db.machineIndicesBeforeYear(target_year_ - 2)});

    for (const EraSpec &era : eras)
        util::require(!era.machines.empty(),
                      "FuturePrediction: no machines in era '" +
                          era.label + "'");

    // Era tags are fixed by position (100, 101, ...), so the eras can
    // be evaluated as one flat task set without changing any result.
    std::vector<SplitSpec> splits;
    for (std::size_t i = 0; i < eras.size(); ++i) {
        util::inform("future prediction: era '" + eras[i].label + "' (" +
                     std::to_string(eras[i].machines.size()) +
                     " machines)");
        splits.push_back({eras[i].machines, results.targetMachines, 100 + i});
    }
    std::vector<SplitResults> split_results =
        evaluator_.evaluateSplits(splits, methods);
    for (std::size_t i = 0; i < eras.size(); ++i) {
        EraResults er;
        er.label = eras[i].label;
        er.predictiveMachines = eras[i].machines;
        er.tasks = std::move(split_results[i]);
        results.eras.push_back(std::move(er));
    }
    return results;
}

} // namespace dtrank::experiments
