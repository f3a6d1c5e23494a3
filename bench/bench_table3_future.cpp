/**
 * @file
 * Reproduces Table 3 of the paper: predicting the performance of the
 * machines released in 2009 using the machines released in 2008, in
 * 2007, or before 2007 as the predictive set.
 */

#include <iostream>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/bench_options.h"
#include "experiments/future.h"
#include "experiments/paper_reference.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

namespace
{

void
printMethodTable(const experiments::FuturePredictionResults &results,
                 experiments::Method method)
{
    using experiments::paper::table3;
    const auto &ref = table3();

    util::TablePrinter table({"metric", "2008", "2007", "older"});
    auto fmt = [&](const experiments::MetricAggregate &a,
                   const std::string &era,
                   auto pick) -> std::string {
        std::string cell = experiments::formatAggregate(a, 2);
        const auto mit = ref.find(method);
        if (mit != ref.end()) {
            const auto eit = mit->second.find(era);
            if (eit != mit->second.end()) {
                const auto &c = pick(eit->second);
                cell += "  [paper " + util::formatFixed(c.average, 2) +
                        " (" + util::formatFixed(c.worst, 2) + ")]";
            }
        }
        return cell;
    };

    std::vector<std::string> rank_row = {"Rank correlation"};
    std::vector<std::string> top1_row = {"Top-1 error (%)"};
    std::vector<std::string> mean_row = {"Mean error (%)"};
    for (const experiments::EraResults &era : results.eras) {
        rank_row.push_back(fmt(
            era.rankAggregate(method), era.label,
            [](const experiments::paper::Table3Column &c) -> const auto & {
                return c.rankCorrelation;
            }));
        top1_row.push_back(fmt(
            era.top1Aggregate(method), era.label,
            [](const experiments::paper::Table3Column &c) -> const auto & {
                return c.top1Error;
            }));
        mean_row.push_back(fmt(
            era.meanErrorAggregate(method), era.label,
            [](const experiments::paper::Table3Column &c) -> const auto & {
                return c.meanError;
            }));
    }
    table.addRow(rank_row);
    table.addRow(top1_row);
    table.addRow(mean_row);
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("bench_table3_future");
    args.addOption("seed", "dataset generator seed", "2011");
    args.addOption("epochs", "MLP training epochs", "500");
    args.addOption("target-year", "year whose machines are predicted",
                   "2009");
    args.addOption("threads", "worker threads (0 = all hardware threads)",
                   "0");
    args.addFlag("verbose", "print per-era progress");
    experiments::addBenchOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    if (args.getFlag("verbose"))
        util::setLogLevel(util::LogLevel::Info);
    experiments::applyObservabilityOptions(args);

    const experiments::BenchDataset data = experiments::loadDatasetOption(
        args, static_cast<std::uint64_t>(args.getLong("seed")));
    const dataset::PerfDatabase &db = data.db;
    const linalg::Matrix &chars = data.characteristics;

    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs =
        static_cast<std::size_t>(args.getLong("epochs"));
    config.parallel.threads =
        static_cast<std::size_t>(args.getLong("threads"));
    const experiments::SplitEvaluator evaluator(db, chars, config);
    const experiments::FuturePrediction protocol(
        evaluator, static_cast<int>(args.getLong("target-year")));

    std::cout << "== Table 3: predicting "
              << args.getLong("target-year")
              << " machines from older machines ==\n\n";
    util::BenchJsonWriter json("table3_future");
    experiments::applySimdOption(args, &json);
    const auto t0 = util::monotonicNow();
    const auto results = protocol.run(experiments::allMethods());
    json.addTimed("future_prediction", t0,
                  {{"threads", args.get("threads")},
                   {"epochs", args.get("epochs")}});

    std::cout << "Target machines: " << results.targetMachines.size()
              << "\n";
    for (const auto &era : results.eras)
        std::cout << "Era '" << era.label
                  << "': " << era.predictiveMachines.size()
                  << " predictive machines\n";

    std::cout << "\n(a) MLP^T\n";
    printMethodTable(results, experiments::Method::MlpT);
    std::cout << "\n(b) NN^T\n";
    printMethodTable(results, experiments::Method::NnT);
    std::cout << "\n(c) GA-10NN (reference; the paper reports GA-kNN in "
                 "the text)\n";
    printMethodTable(results, experiments::Method::GaKnn);

    json.writeTo(args.get("json"));
    experiments::writeObservabilityOutputs(args);
    return 0;
}
