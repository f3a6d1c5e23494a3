/**
 * @file
 * Reproduces Figure 7 of the paper: per-benchmark top-1 prediction
 * error of NN^T, MLP^T and GA-10NN under processor-family
 * cross-validation, plus the Maximum and Average bars.
 */

#include <iostream>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/bench_options.h"
#include "experiments/family_cv.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

int
main(int argc, char **argv)
{
    util::ArgParser args("bench_fig7_top1_error");
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

    std::cout << "== Figure 7: top-1 prediction error (%) per benchmark "
                 "(family cross-validation) ==\n\n";
    util::BenchJsonWriter json("fig7_top1_error");
    experiments::applySimdOption(args, &json);
    const auto t0 = util::monotonicNow();
    const auto results = cv.run(experiments::allMethods());
    json.addTimed("family_cv", t0,
                  {{"threads", args.get("threads")},
                   {"epochs", args.get("epochs")},
                   {"model_cache", cache ? "on" : "off"}});

    util::TablePrinter table(
        {"benchmark", "NN^T", "MLP^T", "GA-10NN"});
    double max_nn = 0.0, max_mlp = 0.0, max_ga = 0.0;
    double sum_nn = 0.0, sum_mlp = 0.0, sum_ga = 0.0;
    for (const std::string &bench : results.benchmarks) {
        const double nn =
            results.benchmarkMeanTop1(experiments::Method::NnT, bench);
        const double mlp =
            results.benchmarkMeanTop1(experiments::Method::MlpT, bench);
        const double ga =
            results.benchmarkMeanTop1(experiments::Method::GaKnn, bench);
        max_nn = std::max(max_nn, nn);
        max_mlp = std::max(max_mlp, mlp);
        max_ga = std::max(max_ga, ga);
        sum_nn += nn;
        sum_mlp += mlp;
        sum_ga += ga;
        table.addRow({bench, util::formatFixed(nn, 2),
                      util::formatFixed(mlp, 2),
                      util::formatFixed(ga, 2)});
    }
    const double n = static_cast<double>(results.benchmarks.size());
    table.addSeparator();
    table.addRow({"Maximum", util::formatFixed(max_nn, 2),
                  util::formatFixed(max_mlp, 2),
                  util::formatFixed(max_ga, 2)});
    table.addRow({"Average", util::formatFixed(sum_nn / n, 2),
                  util::formatFixed(sum_mlp / n, 2),
                  util::formatFixed(sum_ga / n, 2)});
    table.print(std::cout);

    std::cout << "\nPaper reference: prior work (GA-kNN) and NN^T show "
                 ">100% top-1 errors on outlier workloads\n(cactusADM, "
                 "libquantum), while MLP^T stays below ~25% (cactusADM "
                 "24.8%).\n";

    experiments::reportModelCacheStats(cache.get(), std::cout, &json);
    json.writeTo(args.get("json"));
    experiments::writeObservabilityOutputs(args);
    return 0;
}
