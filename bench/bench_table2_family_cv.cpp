/**
 * @file
 * Reproduces Table 2 of the paper: rank correlation, top-1 error and
 * mean error of NN^T, MLP^T and GA-10NN under processor-family
 * cross-validation on the 117-machine database. Prints the paper's
 * reported numbers next to our measured ones.
 */

#include <iostream>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/bench_options.h"
#include "experiments/family_cv.h"
#include "experiments/paper_reference.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

int
main(int argc, char **argv)
{
    util::ArgParser args("bench_table2_family_cv");
    args.addOption("seed", "dataset generator seed", "2011");
    args.addOption("epochs", "MLP training epochs", "500");
    args.addOption("threads", "worker threads (0 = all hardware threads)",
                   "0");
    args.addFlag("verbose", "print per-family progress");
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
    const auto cache = experiments::applyModelCacheOption(args, config);
    const experiments::SplitEvaluator evaluator(db, chars, config);
    const experiments::FamilyCrossValidation cv(evaluator);

    std::cout << "== Table 2: processor-family cross-validation ==\n"
              << "(measured on the synthetic SPEC database; paper values "
                 "in brackets refer to the\n real spec.org data, so only "
                 "the qualitative ordering is expected to match)\n\n";

    util::BenchJsonWriter json("table2_family_cv");
    experiments::applySimdOption(args, &json);
    const auto t0 = util::monotonicNow();
    const auto results = cv.run(experiments::allMethods());
    json.addTimed("family_cv", t0,
                  {{"threads", args.get("threads")},
                   {"epochs", args.get("epochs")},
                   {"model_cache", cache ? "on" : "off"}});

    util::TablePrinter table({"metric", "NN^T", "MLP^T", "GA-10NN"});
    const auto &ref = experiments::paper::table2();

    auto row = [&](const std::string &label, auto measured_fn,
                   auto ref_fn, int decimals) {
        std::vector<std::string> cells = {label};
        for (experiments::Method m : experiments::allMethods()) {
            const experiments::MetricAggregate a = measured_fn(m);
            const auto &r = ref_fn(ref.at(m));
            cells.push_back(
                experiments::formatAggregate(a, decimals) + "  [paper " +
                util::formatFixed(r.average, decimals) + " (" +
                util::formatFixed(r.worst, decimals) + ")]");
        }
        table.addRow(cells);
    };

    row("Rank correlation",
        [&](experiments::Method m) { return results.rankAggregate(m); },
        [](const experiments::paper::Table2Column &c) -> const auto & {
            return c.rankCorrelation;
        },
        2);
    row("Top-1 error (%)",
        [&](experiments::Method m) { return results.top1Aggregate(m); },
        [](const experiments::paper::Table2Column &c) -> const auto & {
            return c.top1Error;
        },
        2);
    row("Mean error (%)",
        [&](experiments::Method m) {
            return results.meanErrorAggregate(m);
        },
        [](const experiments::paper::Table2Column &c) -> const auto & {
            return c.meanError;
        },
        2);

    table.print(std::cout);
    std::cout << "\nTarget families evaluated: "
              << results.families.size() << "\n";

    experiments::reportModelCacheStats(cache.get(), std::cout, &json);
    json.writeTo(args.get("json"));
    experiments::writeObservabilityOutputs(args);
    return 0;
}
