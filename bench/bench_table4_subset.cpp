/**
 * @file
 * Reproduces Table 4 of the paper: predicting the 2009 machines from
 * random subsets of 10, 5 and 3 of the 2008 machines.
 */

#include <iostream>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/bench_options.h"
#include "experiments/paper_reference.h"
#include "experiments/subset.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

namespace
{

void
printMethodTable(const experiments::SubsetExperimentResults &results,
                 experiments::Method method)
{
    const auto &ref = experiments::paper::table4();

    std::vector<std::string> header = {"metric"};
    for (std::size_t size : results.subsetSizes)
        header.push_back(std::to_string(size));
    util::TablePrinter table(header);

    auto fmt = [&](double measured, std::size_t size,
                   auto pick) -> std::string {
        std::string cell = util::formatFixed(measured, 2);
        const auto mit = ref.find(method);
        if (mit != ref.end()) {
            const auto sit = mit->second.find(size);
            if (sit != mit->second.end())
                cell += "  [paper " +
                        util::formatFixed(pick(sit->second), 2) + "]";
        }
        return cell;
    };

    std::vector<std::string> rank_row = {"Rank correlation"};
    std::vector<std::string> top1_row = {"Top-1 error (%)"};
    std::vector<std::string> mean_row = {"Mean error (%)"};
    for (std::size_t size : results.subsetSizes) {
        const experiments::SubsetCell &cell =
            results.cells.at(size).at(method);
        rank_row.push_back(
            fmt(cell.rankCorrelation, size,
                [](const experiments::paper::Table4Column &c) {
                    return c.rankCorrelation;
                }));
        top1_row.push_back(
            fmt(cell.top1ErrorPercent, size,
                [](const experiments::paper::Table4Column &c) {
                    return c.top1Error;
                }));
        mean_row.push_back(
            fmt(cell.meanErrorPercent, size,
                [](const experiments::paper::Table4Column &c) {
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
    util::ArgParser args("bench_table4_subset");
    args.addOption("seed", "dataset generator seed", "2011");
    args.addOption("epochs", "MLP training epochs", "500");
    args.addOption("draws", "random subset draws per size", "5");
    args.addOption("threads", "worker threads (0 = all hardware threads)",
                   "0");
    args.addFlag("verbose", "print progress");
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

    experiments::SubsetExperimentConfig subset_config;
    subset_config.draws =
        static_cast<std::size_t>(args.getLong("draws"));
    const experiments::SubsetExperiment protocol(evaluator,
                                                 subset_config);

    std::cout << "== Table 4: predicting the 2009 machines from small "
                 "subsets of the 2008 machines ==\n(averaged over "
              << subset_config.draws << " random draws per size)\n\n";
    util::BenchJsonWriter json("table4_subset");
    experiments::applySimdOption(args, &json);
    const auto t0 = util::monotonicNow();
    const auto results = protocol.run(experiments::allMethods());
    json.addTimed("subset_experiment", t0,
                  {{"threads", args.get("threads")},
                   {"epochs", args.get("epochs")},
                   {"draws", args.get("draws")}});

    std::cout << "(a) MLP^T\n";
    printMethodTable(results, experiments::Method::MlpT);
    std::cout << "\n(b) NN^T\n";
    printMethodTable(results, experiments::Method::NnT);
    std::cout << "\n(c) GA-10NN (reference)\n";
    printMethodTable(results, experiments::Method::GaKnn);

    json.writeTo(args.get("json"));
    experiments::writeObservabilityOutputs(args);
    return 0;
}
