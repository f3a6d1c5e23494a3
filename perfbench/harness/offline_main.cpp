/**
 * @file
 * pb_offline: the table2_offline workload. Regenerates the paper's
 * Table 2 (processor-family cross-validation of NN^T, MLP^T and
 * GA-10NN on the paper dataset) and writes one JSON summary.
 *
 * Plain mode times the set-up (paper dataset + MICA characteristics)
 * and FamilyCrossValidation::run as a user runs it. Traced mode drives
 * the same splits itself through public calls (selectMachines,
 * GaKnnModel::train, predictTask, evaluatePrediction), timing each
 * layer, and must reproduce FamilyCrossValidation::run's output digest
 * bit for bit.
 *
 *   pb_offline --mode plain --seconds 20 --out t2.json
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "baseline/ga_knn.h"
#include "common.h"
#include "core/metrics.h"
#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/aggregate.h"
#include "experiments/family_cv.h"
#include "experiments/harness.h"
#include "obs/metrics.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/thread_pool.h"

using namespace dtrank;
using perfbench::Clock;
using perfbench::JsonObject;
using perfbench::secondsSince;

namespace
{

/** Table 2 is defined on the paper dataset generated from this seed. */
constexpr std::uint64_t kPaperSeed = 2011;
/** The paper's MLP training budget for Table 2. */
constexpr std::size_t kEpochs = 500;
/** Worker threads: one per core of the 4-core reference host. */
constexpr std::size_t kThreads = 4;
/** Set-up timings before and again after the CV runs: a set-up takes
 *  well under a millisecond, so eleven of each cost nothing and give a
 *  median that one host stall cannot decide. */
constexpr int kSetupReps = 11;

struct Inputs
{
    dataset::PerfDatabase db;
    linalg::Matrix characteristics;
};

Inputs
buildInputs()
{
    return {dataset::makePaperDataset(kPaperSeed),
            dataset::MicaGenerator().generateForCatalog()};
}

/**
 * Bit-exact digest of every prediction plus the printed Table 2
 * aggregates (the strings bench_table2_family_cv prints).
 */
std::string
resultsJson(const experiments::FamilyCvResults &results)
{
    perfbench::Digest digest;
    JsonObject aggregates;
    std::size_t rankings = 0;
    for (experiments::Method m : experiments::allMethods()) {
        for (const experiments::FamilyCvCell &cell : results.cells.at(m)) {
            digest.str(cell.family);
            digest.str(cell.task.benchmark);
            digest.doubles(cell.task.predicted);
            digest.doubles(cell.task.actual);
            digest.f64(cell.task.metrics.rankCorrelation);
            digest.f64(cell.task.metrics.top1ErrorPercent);
            digest.f64(cell.task.metrics.meanErrorPercent);
            digest.f64(cell.task.metrics.maxErrorPercent);
            ++rankings;
        }
        aggregates.raw(
            experiments::methodName(m),
            JsonObject()
                .str("rank_correlation",
                     experiments::formatAggregate(results.rankAggregate(m),
                                                  2))
                .str("top1_error_pct",
                     experiments::formatAggregate(results.top1Aggregate(m),
                                                  2))
                .str("mean_error_pct",
                     experiments::formatAggregate(
                         results.meanErrorAggregate(m), 2))
                .dump());
    }
    return JsonObject()
        .str("predictions_digest", digest.hex())
        .num("rankings", static_cast<double>(rankings))
        .num("families", static_cast<double>(results.families.size()))
        .raw("aggregates", aggregates.dump())
        .dump();
}

double
counterValue(const std::string &name)
{
    return static_cast<double>(
        obs::MetricsRegistry::global().counter(name).value());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-split layer times (seconds); one split runs on one thread. */
struct SplitTimes
{
    double select = 0, gaknnTrain = 0, metrics = 0, busy = 0;
    std::map<experiments::Method, double> predict;
    std::map<experiments::Method, std::size_t> calls;
};

/**
 * The traced pass: FamilyCrossValidation::run rebuilt from public
 * calls, with a timer around each layer.
 */
std::string
runTraced(const Inputs &in, const experiments::MethodSuiteConfig &config)
{
    const dataset::PerfDatabase &db = in.db;
    const std::vector<experiments::Method> &methods =
        experiments::allMethods();
    const std::size_t n_bench = db.benchmarkCount();

    struct Split
    {
        std::string family;
        std::vector<std::size_t> target, predictive;
    };
    std::vector<Split> splits;
    for (const std::string &family : db.families()) {
        Split split;
        split.family = family;
        split.target = db.machineIndicesByFamily(family);
        if (split.target.size() < 2)
            continue;
        for (std::size_t m = 0; m < db.machineCount(); ++m)
            if (db.machine(m).family != family)
                split.predictive.push_back(m);
        splits.push_back(std::move(split));
    }

    const double retries0 = counterValue("dtrank_mlp_retries_total");
    const double fits0 = counterValue("dtrank_mlp_fits_total");
    const double memo0 = counterValue("dtrank_ga_memo_hits_total");
    const double evals0 = counterValue("dtrank_ga_evaluations_total");

    std::vector<SplitTimes> times(splits.size());
    const auto t0 = Clock::now();
    const std::vector<experiments::SplitResults> split_results =
        util::parallelMap(kThreads, splits.size(), [&](std::size_t i) {
            SplitTimes &t = times[i];
            const auto split_start = Clock::now();
            auto lap = Clock::now();
            const dataset::PerfDatabase pred_db =
                db.selectMachines(splits[i].predictive);
            const dataset::PerfDatabase target_db =
                db.selectMachines(splits[i].target);
            t.select = secondsSince(lap);

            lap = Clock::now();
            baseline::GaKnnModel gaknn(config.gaKnn);
            gaknn.train(in.characteristics, pred_db.scores());
            t.gaknnTrain = secondsSince(lap);

            experiments::SplitResults out;
            for (experiments::Method method : methods) {
                std::vector<experiments::TaskResult> &tasks = out[method];
                tasks.resize(n_bench);
                for (std::size_t app = 0; app < n_bench; ++app) {
                    lap = Clock::now();
                    std::vector<double> predicted = experiments::predictTask(
                        method, config, pred_db, target_db, app,
                        experiments::taskMlpSeed(config, i, app), &gaknn,
                        &in.characteristics, nullptr);
                    t.predict[method] += secondsSince(lap);
                    ++t.calls[method];

                    experiments::TaskResult &task = tasks[app];
                    task.benchmark = db.benchmark(app).name;
                    const double *row = target_db.benchmarkScoresData(app);
                    task.actual.assign(row, row + target_db.machineCount());
                    lap = Clock::now();
                    task.metrics =
                        core::evaluatePrediction(task.actual, predicted);
                    t.metrics += secondsSince(lap);
                    task.predicted = std::move(predicted);
                }
            }
            t.busy = secondsSince(split_start);
            return out;
        });
    const double wall = secondsSince(t0);

    experiments::FamilyCvResults results;
    for (std::size_t b = 0; b < n_bench; ++b)
        results.benchmarks.push_back(db.benchmark(b).name);
    for (std::size_t i = 0; i < splits.size(); ++i) {
        results.families.push_back(splits[i].family);
        for (const auto &[method, tasks] : split_results[i])
            for (const experiments::TaskResult &task : tasks)
                results.cells[method].push_back({splits[i].family, task});
    }

    SplitTimes total;
    for (const SplitTimes &t : times) {
        total.select += t.select;
        total.gaknnTrain += t.gaknnTrain;
        total.metrics += t.metrics;
        total.busy += t.busy;
        for (const auto &[m, s] : t.predict)
            total.predict[m] += s;
        for (const auto &[m, n] : t.calls)
            total.calls[m] += n;
    }
    using experiments::Method;
    const double measured = total.select + total.gaknnTrain +
                            total.metrics + total.predict[Method::NnT] +
                            total.predict[Method::MlpT] +
                            total.predict[Method::GaKnn];
    const double pool = static_cast<double>(
        util::ParallelConfig{kThreads}.resolved());

    JsonObject layers;
    layers.num("dataset.select_machines_ms", total.select * 1e3)
        .num("baseline.gaknn_train_ms", total.gaknnTrain * 1e3)
        .num("splits", static_cast<double>(splits.size()))
        .num("core.mlpt_task_ms", total.predict[Method::MlpT] * 1e3)
        .num("core.nnt_task_ms", total.predict[Method::NnT] * 1e3)
        .num("baseline.gaknn_task_ms", total.predict[Method::GaKnn] * 1e3)
        .num("task_calls_per_method",
             static_cast<double>(total.calls[Method::NnT]))
        .num("core.metrics_ms", total.metrics * 1e3)
        .num("split_busy_ms", total.busy * 1e3)
        .num("split_remainder_ms", (total.busy - measured) * 1e3)
        .num("coverage", ratio(measured, total.busy))
        .num("util.pool_busy_share", ratio(total.busy, wall * pool))
        .num("ml.mlp_retry_ratio",
             ratio(counterValue("dtrank_mlp_retries_total") - retries0,
                   counterValue("dtrank_mlp_fits_total") - fits0))
        .num("ml.ga_memo_hit_ratio",
             ratio(counterValue("dtrank_ga_memo_hits_total") - memo0,
                   counterValue("dtrank_ga_memo_hits_total") - memo0 +
                       counterValue("dtrank_ga_evaluations_total") -
                       evals0));
    return JsonObject()
        .num("wall_s", wall)
        .raw("layers", layers.dump())
        .raw("results", resultsJson(results))
        .dump();
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("pb_offline");
    args.addOption("mode", "plain | traced", "plain");
    args.addOption("seconds", "measurement budget for repeated CV runs",
                   "20");
    args.addOption("out", "summary JSON path", "");
    if (!args.parse(argc, argv))
        return 0;

    try {
        const std::string mode = args.get("mode");
        util::require(mode == "plain" || mode == "traced",
                      "--mode must be plain or traced");

        // Set-up is timed before and again after the CV runs, so one
        // host slowdown does not decide the median.
        std::vector<double> setup_s;
        const auto time_setup = [&] {
            for (int r = 0; r < kSetupReps; ++r) {
                const auto t0 = Clock::now();
                const Inputs probe = buildInputs();
                setup_s.push_back(secondsSince(t0));
                util::require(probe.db.machineCount() > 0, "empty dataset");
            }
        };
        time_setup();
        const Inputs in = buildInputs();

        experiments::MethodSuiteConfig config;
        config.mlp.mlp.epochs = kEpochs;
        config.parallel.threads = kThreads;

        JsonObject out;
        out.raw("host", perfbench::hostContextJson())
            .str("dataset", "paper:" + std::to_string(kPaperSeed))
            .num("threads", static_cast<double>(kThreads))
            .num("epochs", static_cast<double>(config.mlp.mlp.epochs));

        if (mode == "plain") {
            const experiments::SplitEvaluator evaluator(
                in.db, in.characteristics, config);
            const experiments::FamilyCrossValidation cv(evaluator);
            std::vector<double> walls;
            std::string first;
            const double budget = args.getDouble("seconds");
            const auto loop_start = Clock::now();
            do {
                const auto t0 = Clock::now();
                const experiments::FamilyCvResults results =
                    cv.run(experiments::allMethods());
                walls.push_back(secondsSince(t0));
                const std::string summary = resultsJson(results);
                if (first.empty())
                    first = summary;
                util::require(summary == first,
                              "repeated CV runs disagree");
            } while (secondsSince(loop_start) + walls.back() <= budget);
            out.nums("wall_s", walls).raw("results", first);
        } else {
            out.raw("traced", runTraced(in, config));
        }
        time_setup();
        out.nums("setup_s", setup_s);
        out.num("vmhwm_kib", perfbench::procStatusKib("VmHWM"));
        const std::string text = out.dump() + "\n";
        if (args.get("out").empty())
            std::cout << text;
        else
            perfbench::writeFile(args.get("out"), text);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "pb_offline: " << e.what() << "\n";
        return 1;
    }
}
