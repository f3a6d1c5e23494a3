/**
 * @file
 * dtrank — command-line interface to the library.
 *
 * Subcommands:
 *   generate   Write the synthetic SPEC-style database (paper-sized or
 *              --dataset scaled:...) to CSV, or to the binary columnar
 *              format when --out ends in .dtc.
 *   save       Convert a database between formats: load --db (either
 *              format) and write --out (.dtc = columnar, else CSV).
 *   load       Open a database, print a one-line summary and the load
 *              timing (columnar files are memory-mapped).
 *   info       Summarize a database (CSV or columnar).
 *   rank       Rank the machines of a database for an application of
 *              interest, given the user's own measurements on the
 *              machines they own.
 *   evaluate   Hold out a benchmark as the application of interest and
 *              report prediction accuracy (with a bootstrap confidence
 *              interval on the rank correlation).
 *
 * Examples:
 *   dtrank_cli generate --out spec.csv
 *   dtrank_cli generate --dataset scaled:10000 --out spec10k.dtc
 *   dtrank_cli save --db spec.csv --out spec.dtc
 *   dtrank_cli load --db spec10k.dtc
 *   dtrank_cli info --db spec.csv
 *   dtrank_cli rank --db spec.dtc --measurements my_app.csv --top 10
 *   dtrank_cli evaluate --db spec.csv --app gcc --owned 6
 *   dtrank_cli evaluate --db spec.csv --app all --threads 8
 *
 * The measurements CSV has one "machine name,score" row per owned
 * machine; machine names must match `info` output (e.g.
 * "Intel Xeon/Gainestown#0").
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>

#include "core/linear_transposition.h"
#include "core/metrics.h"
#include "core/mlp_transposition.h"
#include "core/multi_transposition.h"
#include "core/ranking.h"
#include "core/selection.h"
#include "core/spline_transposition.h"
#include "core/transposition.h"
#include "dataset/columnar_io.h"
#include "dataset/scaled_spec.h"
#include "dataset/synthetic_spec.h"
#include "core/ranking_comparison.h"
#include "experiments/bench_options.h"
#include "experiments/harness.h"
#include "stats/bootstrap.h"
#include "stats/kendall.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

namespace
{

/** Builds the requested predictor. */
std::unique_ptr<core::TranspositionPredictor>
makePredictor(const std::string &method)
{
    const std::string m = util::toLower(method);
    if (m == "nn" || m == "linear")
        return std::make_unique<core::LinearTransposition>();
    if (m == "mlp")
        return std::make_unique<core::MlpTransposition>();
    if (m == "spline")
        return std::make_unique<core::SplineTransposition>();
    if (m == "multi" || m == "knn")
        return std::make_unique<core::MultiTransposition>();
    throw util::InvalidArgument("unknown --method '" + method +
                                "' (nn, mlp, spline, multi)");
}

/** Maps a --method name onto the experiment harness's Method enum. */
experiments::Method
harnessMethod(const std::string &method)
{
    const std::string m = util::toLower(method);
    if (m == "nn" || m == "linear")
        return experiments::Method::NnT;
    if (m == "mlp")
        return experiments::Method::MlpT;
    if (m == "spline")
        return experiments::Method::SplT;
    if (m == "multi" || m == "knn")
        return experiments::Method::MultiNnT;
    throw util::InvalidArgument("unknown --method '" + method +
                                "' (nn, mlp, spline, multi)");
}

/** True when `path` names a columnar file by extension. */
bool
wantsColumnar(const std::string &path)
{
    const std::string ext = dataset::kColumnarExtension;
    return path.size() > ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

/** Applies a non-zero --missing fraction to a database. */
dataset::PerfDatabase
applyMissingOption(const util::ArgParser &args, dataset::PerfDatabase db)
{
    const experiments::MissingSpec spec =
        experiments::parseMissingSpec(args.get("missing"));
    if (spec.fraction <= 0.0)
        return db;
    return dataset::applyMissingness(db, spec.fraction, spec.seed);
}

/** Builds the database selected by --dataset (paper or scaled). */
dataset::PerfDatabase
makeDatabaseFromSpec(const util::ArgParser &args)
{
    const auto seed = static_cast<std::uint64_t>(args.getLong("seed"));
    const experiments::DatasetSpec spec =
        experiments::parseDatasetSpec(args.get("dataset"));
    if (!spec.scaled)
        return applyMissingOption(args,
                                  dataset::makePaperDataset(seed));
    dataset::ScaledSpecConfig config;
    config.machines = spec.machines;
    config.benchmarks = spec.benchmarks > 0
                            ? spec.benchmarks
                            : dataset::benchmarkCatalog().size();
    config.seed = spec.seed != 0 ? spec.seed : seed;
    return applyMissingOption(
        args, dataset::ScaledSpecGenerator(config).generate());
}

/** Loads --db in either format, reporting which was detected. */
dataset::PerfDatabase
loadDatabaseArg(const util::ArgParser &args)
{
    const std::string path = args.get("db");
    util::require(!path.empty(), "--db is required");
    return applyMissingOption(args, dataset::loadDatabaseAuto(path));
}

/** Writes `db` to `path`, columnar when the extension asks for it. */
void
writeDatabase(const dataset::PerfDatabase &db, const std::string &path)
{
    if (wantsColumnar(path))
        dataset::saveColumnar(db, path);
    else
        db.saveCsv(path);
}

int
cmdGenerate(util::ArgParser &args)
{
    const dataset::PerfDatabase db = makeDatabaseFromSpec(args);
    const std::string out = args.get("out");
    util::require(!out.empty(), "generate: --out is required");
    writeDatabase(db, out);
    std::cout << "wrote " << db.benchmarkCount() << " benchmarks x "
              << db.machineCount() << " machines to " << out << " ("
              << (wantsColumnar(out) ? "columnar" : "CSV") << ")\n";
    return 0;
}

int
cmdSave(util::ArgParser &args)
{
    const std::string out = args.get("out");
    util::require(!out.empty(), "save: --out is required");
    const dataset::PerfDatabase db = loadDatabaseArg(args);
    writeDatabase(db, out);
    std::cout << "wrote " << db.benchmarkCount() << " benchmarks x "
              << db.machineCount() << " machines to " << out << " ("
              << (wantsColumnar(out) ? "columnar" : "CSV") << ")\n";
    return 0;
}

int
cmdLoad(util::ArgParser &args)
{
    const std::string path = args.get("db");
    util::require(!path.empty(), "load: --db is required");
    const auto t0 = util::monotonicNow();
    if (dataset::isColumnarFile(path)) {
        const auto columnar = dataset::ColumnarDatabase::open(path);
        const double open_ms = util::secondsSince(t0) * 1e3;
        const auto t1 = util::monotonicNow();
        const dataset::PerfDatabase db = columnar.toDatabase();
        const double mat_ms = util::secondsSince(t1) * 1e3;
        std::cout << path << ": columnar, " << db.benchmarkCount()
                  << " benchmarks x " << db.machineCount()
                  << " machines, " << columnar.fileBytes() << " bytes, "
                  << (columnar.memoryMapped() ? "mmap" : "buffered")
                  << "\nopen+validate " << util::formatFixed(open_ms, 2)
                  << " ms, materialize " << util::formatFixed(mat_ms, 2)
                  << " ms\n";
    } else {
        const dataset::PerfDatabase db =
            dataset::PerfDatabase::loadCsv(path);
        const double ms = util::secondsSince(t0) * 1e3;
        std::cout << path << ": CSV, " << db.benchmarkCount()
                  << " benchmarks x " << db.machineCount()
                  << " machines\nparse " << util::formatFixed(ms, 2)
                  << " ms\n";
    }
    return 0;
}

int
cmdInfo(util::ArgParser &args)
{
    const dataset::PerfDatabase db = loadDatabaseArg(args);
    std::cout << db.benchmarkCount() << " benchmarks, "
              << db.machineCount() << " machines, "
              << db.families().size() << " families\n\nBenchmarks:";
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b)
        std::cout << (b ? ", " : " ") << db.benchmark(b).name;
    std::cout << "\n\nMachines:\n";
    util::TablePrinter table({"name", "vendor", "isa", "year"});
    for (std::size_t m = 0; m < db.machineCount(); ++m) {
        const auto &info = db.machine(m);
        table.addRow({info.name(), info.vendor, info.isa,
                      std::to_string(info.releaseYear)});
    }
    table.print(std::cout);
    return 0;
}

/** Parses "machine name,score" rows; returns db indices + scores. */
std::pair<std::vector<std::size_t>, std::vector<double>>
loadMeasurements(const dataset::PerfDatabase &db, const std::string &path)
{
    std::map<std::string, std::size_t> by_name;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        by_name[db.machine(m).name()] = m;

    std::vector<std::size_t> machines;
    std::vector<double> scores;
    for (const auto &row : util::readCsvFile(path)) {
        if (row.empty() || (row.size() == 1 && row[0].empty()))
            continue;
        util::require(row.size() == 2,
                      "measurements: expected 'machine,score' rows");
        const std::string name = util::trim(row[0]);
        if (name == "machine" || name == "name")
            continue; // optional header
        const auto it = by_name.find(name);
        util::require(it != by_name.end(),
                      "measurements: unknown machine '" + name +
                          "' (see `dtrank_cli info`)");
        machines.push_back(it->second);
        scores.push_back(util::parseDouble(row[1]));
        util::require(scores.back() > 0.0,
                      "measurements: scores must be positive");
    }
    util::require(machines.size() >= 2,
                  "measurements: need at least 2 owned machines");
    return {machines, scores};
}

int
cmdRank(util::ArgParser &args)
{
    const dataset::PerfDatabase db = loadDatabaseArg(args);
    util::require(!args.get("measurements").empty(),
                  "rank: --measurements <csv> is required "
                  "('machine,score' rows; see `dtrank_cli info`)");
    const auto [owned, app_scores] =
        loadMeasurements(db, args.get("measurements"));

    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (std::find(owned.begin(), owned.end(), m) == owned.end())
            targets.push_back(m);

    // Build the problem by hand: the app is the user's own workload,
    // not a database row.
    const dataset::PerfDatabase pred_db = db.selectMachines(owned);
    const dataset::PerfDatabase target_db = db.selectMachines(targets);
    core::TranspositionProblem problem;
    problem.predictiveBenchScores = pred_db.scores();
    problem.predictiveAppScores = app_scores;
    problem.targetBenchScores = target_db.scores();
    // Ragged databases carry their masks into the problem; the user's
    // own measurements are always fully observed.
    problem.predictiveMask = pred_db.mask();
    problem.targetMask = target_db.mask();

    auto predictor = makePredictor(args.get("method"));
    const auto predicted = predictor->predict(problem);
    const core::MachineRanking ranking(predicted);

    std::cout << "Owned machines (" << owned.size() << "):";
    for (std::size_t m : owned)
        std::cout << " " << db.machine(m).name();
    std::cout << "\nMethod: " << predictor->name()
              << "\n\nPredicted best machines for your application:\n\n"
              << ranking.toTable(
                     target_db,
                     static_cast<std::size_t>(args.getLong("top")));
    return 0;
}

/**
 * Evaluates every benchmark as the application of interest on one
 * k-medoid split, distributing the leave-one-out tasks over --threads
 * workers, and prints one accuracy row per benchmark.
 */
int
evaluateAllApps(util::ArgParser &args, const dataset::PerfDatabase &db,
                const std::vector<std::size_t> &owned,
                const std::vector<std::size_t> &targets)
{
    const experiments::Method method = harnessMethod(args.get("method"));
    experiments::MethodSuiteConfig config;
    config.parallel.threads =
        static_cast<std::size_t>(args.getLong("threads"));
    // The GA-kNN baseline (the only characteristics consumer) is not
    // reachable from --method, so a placeholder matrix suffices.
    const experiments::SplitEvaluator evaluator(
        db, linalg::Matrix(db.benchmarkCount(), 1), config);
    const auto split = evaluator.evaluateSplit(owned, targets, {method});
    const auto &tasks = split.at(method);

    std::cout << "Owned machines: " << owned.size()
              << " (k-medoid selected)\nMethod: "
              << experiments::methodName(method) << "\n\n";
    util::TablePrinter table(
        {"benchmark", "rank corr", "top-1 err %", "mean err %"});
    double rank = 0.0, top1 = 0.0, err = 0.0;
    for (const experiments::TaskResult &t : tasks) {
        rank += t.metrics.rankCorrelation;
        top1 += t.metrics.top1ErrorPercent;
        err += t.metrics.meanErrorPercent;
        table.addRow({t.benchmark,
                      util::formatFixed(t.metrics.rankCorrelation, 3),
                      util::formatFixed(t.metrics.top1ErrorPercent, 2),
                      util::formatFixed(t.metrics.meanErrorPercent, 2)});
    }
    const double n = static_cast<double>(tasks.size());
    table.addSeparator();
    table.addRow({"Average", util::formatFixed(rank / n, 3),
                  util::formatFixed(top1 / n, 2),
                  util::formatFixed(err / n, 2)});
    table.print(std::cout);
    return 0;
}

int
cmdEvaluate(util::ArgParser &args)
{
    const dataset::PerfDatabase db = loadDatabaseArg(args);
    const std::string app = args.get("app");
    util::require(app == "all" || db.hasBenchmark(app),
                  "evaluate: unknown benchmark '" + app + "'");

    std::vector<std::size_t> all(db.machineCount());
    for (std::size_t m = 0; m < all.size(); ++m)
        all[m] = m;
    util::Rng rng(static_cast<std::uint64_t>(args.getLong("seed")));
    const auto owned = core::selectMachinesByKMedoids(
        db, all, static_cast<std::size_t>(args.getLong("owned")), rng);
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (std::find(owned.begin(), owned.end(), m) == owned.end())
            targets.push_back(m);

    if (app == "all")
        return evaluateAllApps(args, db, owned, targets);

    const auto problem =
        core::makeProblemFromSplit(db, owned, targets, app);
    auto predictor = makePredictor(args.get("method"));
    auto predicted = predictor->predict(problem);
    const dataset::PerfDatabase target_db = db.selectMachines(targets);
    const std::size_t app_row = db.benchmarkIndex(app);
    auto actual = target_db.benchmarkScores(app_row);
    if (target_db.masked()) {
        // The held-out row carries NaN in its unobserved cells; the
        // metrics compare only observed (actual, predicted) pairs.
        std::vector<double> actual_obs;
        std::vector<double> predicted_obs;
        for (std::size_t m = 0; m < actual.size(); ++m) {
            if (!target_db.mask().valid(app_row, m))
                continue;
            actual_obs.push_back(actual[m]);
            predicted_obs.push_back(predicted[m]);
        }
        util::require(actual_obs.size() >= 2,
                      "evaluate: fewer than 2 observed target scores "
                      "for '" + app + "'");
        actual = std::move(actual_obs);
        predicted = std::move(predicted_obs);
    }

    const auto metrics = core::evaluatePrediction(actual, predicted);
    const auto ci = stats::bootstrapSpearman(actual, predicted);

    std::cout << "Application of interest: " << app << " (held out)\n"
              << "Owned machines: " << owned.size()
              << " (k-medoid selected)\nMethod: " << predictor->name()
              << "\n\n"
              << "Rank correlation:  "
              << util::formatFixed(metrics.rankCorrelation, 3)
              << "  [95% CI " << util::formatFixed(ci.lower, 3) << ", "
              << util::formatFixed(ci.upper, 3) << "]\n"
              << "Kendall tau-b:     "
              << util::formatFixed(stats::kendallTau(actual, predicted),
                                   3)
              << "\n"
              << "Top-1 deficiency:  "
              << util::formatFixed(metrics.top1ErrorPercent, 2) << "%\n"
              << "Top-5 overlap:     "
              << util::formatFixed(
                     core::topNOverlap(actual, predicted, 5) * 100.0, 0)
              << "%\n"
              << "Max rank slip:     "
              << core::maxRankDisplacement(actual, predicted)
              << " positions\n"
              << "Mean error:        "
              << util::formatFixed(metrics.meanErrorPercent, 2) << "%\n"
              << "Max error:         "
              << util::formatFixed(metrics.maxErrorPercent, 2) << "%\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: dtrank_cli "
                     "<generate|save|load|info|rank|evaluate> "
                     "[options]\nRun a subcommand with --help for its "
                     "options.\n";
        return 2;
    }
    const std::string command = argv[1];

    util::ArgParser args("dtrank_cli " + command);
    args.addOption("db", "database path (CSV or .dtc columnar)", "");
    args.addOption("out", "output path (.dtc writes columnar)", "");
    args.addOption("seed", "random seed", "2011");
    args.addOption("dataset",
                   "generate: paper (117x29) or "
                   "scaled:<machines>[x<benchmarks>][:<seed>]",
                   "paper");
    args.addOption("missing",
                   "hide a uniform random fraction of score cells: "
                   "<fraction>[:<seed>] (0 = fully observed)",
                   "0");
    args.addOption("measurements",
                   "CSV of 'machine,score' rows for your application",
                   "");
    args.addOption("method", "predictor: nn, mlp, spline, multi", "mlp");
    args.addOption("top", "ranking rows to print", "10");
    args.addOption("app", "held-out benchmark, or 'all' (evaluate)",
                   "gcc");
    args.addOption("owned", "number of owned machines (evaluate)", "6");
    args.addOption("threads",
                   "worker threads for --app all (0 = all hardware "
                   "threads)",
                   "0");
    args.addOption("metrics-out",
                   "write the metrics registry to this path after the "
                   "run (Prometheus text; JSON when the path ends in "
                   ".json)", "");
    args.addOption("trace-out",
                   "record trace spans and write Chrome trace_event "
                   "JSON to this path (open in chrome://tracing or "
                   "Perfetto)", "");

    try {
        if (!args.parse(argc - 1, argv + 1))
            return 0;
        experiments::applyObservabilityOptions(args);
        int rc = 2;
        if (command == "generate")
            rc = cmdGenerate(args);
        else if (command == "save")
            rc = cmdSave(args);
        else if (command == "load")
            rc = cmdLoad(args);
        else if (command == "info")
            rc = cmdInfo(args);
        else if (command == "rank")
            rc = cmdRank(args);
        else if (command == "evaluate")
            rc = cmdEvaluate(args);
        else
            std::cerr << "unknown command '" << command << "'\n";
        experiments::writeObservabilityOutputs(args);
        return rc;
    } catch (const util::Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
