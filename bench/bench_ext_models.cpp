/**
 * @file
 * Extension experiments beyond the paper's evaluation:
 *
 *  1. The full model spectrum the literature discusses — linear
 *     (NN^T), multi-proxy linear (kNN^T), spline (SPL^T, per Lee &
 *     Brooks), neural network (MLP^T) — plus the GA-kNN prior art,
 *     under the paper's family cross-validation.
 *  2. Top-n shortlist robustness: the deficiency of buying the best
 *     *actual* machine among the predicted top-n, for n = 1..5 — how
 *     much a short audition list mitigates each method's top-1
 *     failures.
 *  3. PCA structure of the two data spaces (machine performance space
 *     and benchmark characteristic space), quantifying the effective
 *     dimensionality the methods exploit.
 */

#include <iostream>

#include "dataset/mica.h"
#include "dataset/perf_database.h"
#include "dataset/synthetic_spec.h"
#include "experiments/bench_options.h"
#include "experiments/family_cv.h"
#include "ml/pca.h"
#include "stats/error_metrics.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

int
main(int argc, char **argv)
{
    util::ArgParser args("bench_ext_models");
    args.addOption("seed", "dataset generator seed", "2011");
    args.addOption("epochs", "MLP training epochs", "500");
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
    const experiments::FamilyCrossValidation cv(evaluator);

    std::cout << "== Extension 1: the full model spectrum under family "
                 "cross-validation ==\n\n";
    const auto results = cv.run(experiments::extendedMethods());

    util::TablePrinter spectrum(
        {"method", "rank avg", "rank worst", "top-1 avg %",
         "top-1 worst %", "mean err %"});
    for (experiments::Method m : experiments::extendedMethods()) {
        const auto rank = results.rankAggregate(m);
        const auto top1 = results.top1Aggregate(m);
        const auto err = results.meanErrorAggregate(m);
        spectrum.addRow({experiments::methodName(m),
                         util::formatFixed(rank.average, 3),
                         util::formatFixed(rank.worst, 3),
                         util::formatFixed(top1.average, 2),
                         util::formatFixed(top1.worst, 2),
                         util::formatFixed(err.average, 2)});
    }
    spectrum.print(std::cout);

    // ---- Extension 2: top-n shortlist robustness -----------------
    std::cout << "\n== Extension 2: worst-case deficiency of buying "
                 "the best machine in the predicted top-n ==\n\n";
    std::vector<std::string> header = {"method"};
    for (std::size_t n = 1; n <= 5; ++n)
        header.push_back("n=" + std::to_string(n));
    util::TablePrinter shortlist(header);

    for (experiments::Method m : experiments::extendedMethods()) {
        std::vector<std::string> row = {experiments::methodName(m)};
        for (std::size_t n = 1; n <= 5; ++n) {
            double worst = 0.0;
            for (const std::string &bench : results.benchmarks) {
                // Pool the full-study prediction per benchmark.
                std::vector<double> actual;
                std::vector<double> predicted;
                for (const auto &cell : results.cells.at(m)) {
                    if (cell.task.benchmark != bench)
                        continue;
                    experiments::appendObservedPairs(cell.task, actual,
                                                     predicted);
                }
                worst = std::max(worst, stats::topNDeficiencyPercent(
                                            actual, predicted, n));
            }
            row.push_back(util::formatFixed(worst, 1));
        }
        shortlist.addRow(row);
    }
    shortlist.print(std::cout);
    std::cout << "\n(An n-machine audition list caps the damage of a "
                 "mispredicted top-1: even the\nGA-kNN outlier "
                 "failures vanish once a handful of finalists are "
                 "benchmarked\nfor real.)\n";

    // ---- Extension 3: PCA structure of the data spaces ------------
    std::cout << "\n== Extension 3: effective dimensionality of the "
                 "data (PCA) ==\n\n";
    // Machine space: rows = machines, features = log2 benchmark scores.
    // A masked database's unobserved cells are imputed first, as the
    // k-medoid selection does; a dense one is used as it is.
    const dataset::PerfDatabase observed =
        db.masked() ? dataset::imputeObserved(db) : dataset::PerfDatabase{};
    const dataset::PerfDatabase &space_db = db.masked() ? observed : db;
    linalg::Matrix machine_space(space_db.machineCount(),
                                 space_db.benchmarkCount());
    for (std::size_t m = 0; m < space_db.machineCount(); ++m) {
        const auto scores = space_db.machineScores(m);
        for (std::size_t b = 0; b < scores.size(); ++b)
            machine_space(m, b) = std::log2(scores[b]);
    }
    ml::Pca machine_pca{};
    machine_pca.fit(machine_space);

    ml::Pca char_pca{};
    char_pca.fit(chars);

    util::TablePrinter pca_table({"space", "PC1 %", "PC2 %", "PC3 %",
                                  "dims for 95%"});
    auto pca_row = [&](const std::string &label, const ml::Pca &pca) {
        const auto ratios = pca.explainedVarianceRatio();
        pca_table.addRow(
            {label, util::formatFixed(ratios[0] * 100.0, 1),
             util::formatFixed(ratios[1] * 100.0, 1),
             util::formatFixed(ratios[2] * 100.0, 1),
             std::to_string(pca.componentsForVariance(0.95))});
    };
    pca_row("machines x log scores", machine_pca);
    pca_row("benchmarks x characteristics", char_pca);
    pca_table.print(std::cout);
    std::cout
        << "\n(The machine space is dominated by one overall-speed "
           "component plus a handful of\narchitectural axes — the "
           "low-rank structure that makes a few predictive machines\n"
           "sufficient, Section 6.4's finding.)\n";
    return 0;
}
