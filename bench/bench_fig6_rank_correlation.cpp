/**
 * @file
 * Reproduces Figure 6 of the paper: per-benchmark Spearman rank
 * correlation of NN^T, MLP^T and GA-10NN under processor-family
 * cross-validation, plus the Minimum and Average bars.
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
    util::ArgParser args("bench_fig6_rank_correlation");
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
    const experiments::SplitEvaluator evaluator(db, chars, config);
    const experiments::FamilyCrossValidation cv(evaluator);

    std::cout << "== Figure 6: Spearman rank correlation per benchmark "
                 "(family cross-validation) ==\n\n";
    util::BenchJsonWriter json("fig6_rank_correlation");
    json.addContext("dataset", data.description);
    experiments::applySimdOption(args, &json);
    const auto t0 = util::monotonicNow();
    const auto results = cv.run(experiments::allMethods());
    json.addTimed("family_cv", t0,
                  {{"threads", args.get("threads")},
                   {"epochs", args.get("epochs")}});

    util::TablePrinter table(
        {"benchmark", "NN^T", "MLP^T", "GA-10NN"});
    double min_nn = 1.0, min_mlp = 1.0, min_ga = 1.0;
    double sum_nn = 0.0, sum_mlp = 0.0, sum_ga = 0.0;
    for (const std::string &bench : results.benchmarks) {
        const double nn =
            results.benchmarkMeanRank(experiments::Method::NnT, bench);
        const double mlp =
            results.benchmarkMeanRank(experiments::Method::MlpT, bench);
        const double ga =
            results.benchmarkMeanRank(experiments::Method::GaKnn, bench);
        min_nn = std::min(min_nn, nn);
        min_mlp = std::min(min_mlp, mlp);
        min_ga = std::min(min_ga, ga);
        sum_nn += nn;
        sum_mlp += mlp;
        sum_ga += ga;
        table.addRow({bench, util::formatFixed(nn, 3),
                      util::formatFixed(mlp, 3),
                      util::formatFixed(ga, 3)});
    }
    const double n = static_cast<double>(results.benchmarks.size());
    table.addSeparator();
    table.addRow({"Minimum", util::formatFixed(min_nn, 3),
                  util::formatFixed(min_mlp, 3),
                  util::formatFixed(min_ga, 3)});
    table.addRow({"Average", util::formatFixed(sum_nn / n, 3),
                  util::formatFixed(sum_mlp / n, 3),
                  util::formatFixed(sum_ga / n, 3)});
    table.print(std::cout);

    const auto ref = experiments::paper::figure6();
    std::cout << "\nPaper reference points: GA-kNN worst benchmark "
              << ref.worstBenchmark << " at "
              << util::formatFixed(ref.gaKnnWorst, 2)
              << "; data transposition improves it to "
              << util::formatFixed(ref.transpositionOnWorst, 2) << ".\n";

    json.writeTo(args.get("json"));
    experiments::writeObservabilityOutputs(args);
    return 0;
}
