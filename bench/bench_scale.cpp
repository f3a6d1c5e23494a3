/**
 * @file
 * Scaling sweep for the 100x-1000x substrate: generates scaled
 * databases at a list of machine counts and measures, per count,
 *
 *   - dataset generation time (ScaledSpecGenerator, multi-threaded),
 *   - columnar save / mmap load round-trip time, file size, and
 *     bit-identity of the reloaded scores,
 *   - NN^T best-fit scan: Naive reference vs the tiled scan
 *     (bit-identical by contract; the speedup is the point),
 *   - GA-kNN predictApp: per-machine reference gather vs the row-sweep
 *     path (bit-identical by contract),
 *   - peak RSS after each stage (VmHWM, Linux only).
 *
 * Every stage appends one BenchJsonWriter record with the machine count
 * and derived throughput in its context, so bench_compare can track the
 * scaling curve across PRs:
 *
 *   bench_scale --machines 117,1000,10000 --json BENCH_scale.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/ga_knn.h"
#include "core/linear_transposition.h"
#include "core/transposition.h"
#include "dataset/columnar_io.h"
#include "dataset/mica.h"
#include "dataset/scaled_spec.h"
#include "experiments/bench_options.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

namespace
{

/** Peak resident set size in MiB (VmHWM), or 0 when unavailable. */
double
peakRssMiB()
{
#ifdef __linux__
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        const auto fields = util::split(util::trim(line.substr(6)), ' ');
        if (!fields.empty())
            return static_cast<double>(util::parseLong(fields[0])) /
                   1024.0;
    }
#endif
    return 0.0;
}

/** Bitwise equality of two double sequences (NaN-safe). */
bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

/** Appends one record with millisecond timing and context. */
void
record(util::BenchJsonWriter &json, const std::string &section,
       std::size_t machines, double ms,
       std::vector<std::pair<std::string, std::string>> extra = {})
{
    util::BenchRecord rec;
    // The machine count is part of the name so bench_compare matches
    // each sweep point against its baseline counterpart instead of
    // deduplicating the whole sweep to one record.
    rec.name = "BENCH_scale." + section + "@" +
               std::to_string(machines);
    rec.realTimeMs = ms;
    rec.context.emplace_back("machines", std::to_string(machines));
    for (auto &kv : extra)
        rec.context.push_back(std::move(kv));
    json.add(std::move(rec));
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("bench_scale");
    args.addOption("machines",
                   "comma-separated machine counts to sweep",
                   "117,1000,10000");
    args.addOption("benchmarks", "benchmarks per scaled database", "29");
    args.addOption("seed", "scaled dataset seed", "2011");
    args.addOption("threads",
                   "worker threads for generation and the tiled/sweep "
                   "paths (0 = all hardware threads)",
                   "0");
    args.addOption("naive-limit",
                   "largest machine count the Naive NN^T reference and "
                   "the GA-kNN reference predict run at (they are the "
                   "O(n^2)-ish baselines being beaten)",
                   "10000");
    args.addOption("predictive",
                   "predictive machines in the NN^T split", "10");
    args.addOption("ga-population", "GA population (kept small)", "20");
    args.addOption("ga-generations", "GA generations (kept small)", "8");
    experiments::addBenchOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    experiments::applyObservabilityOptions(args);

    const auto seed = static_cast<std::uint64_t>(args.getLong("seed"));
    const auto threads =
        static_cast<std::size_t>(args.getLong("threads"));
    const auto n_bench =
        static_cast<std::size_t>(args.getLong("benchmarks"));
    const auto naive_limit =
        static_cast<std::size_t>(args.getLong("naive-limit"));
    const auto n_predictive =
        static_cast<std::size_t>(args.getLong("predictive"));

    std::vector<std::size_t> counts;
    for (const std::string &field :
         util::split(args.get("machines"), ','))
        counts.push_back(
            static_cast<std::size_t>(util::parseLong(util::trim(field))));
    util::require(!counts.empty(), "--machines: need at least one count");

    util::BenchJsonWriter json("scale");
    experiments::applySimdOption(args, &json);
    json.addContext("threads", args.get("threads"));
    json.addContext("benchmarks", args.get("benchmarks"));

    util::TablePrinter table({"machines", "generate ms", "save ms",
                              "load ms", "file MiB", "NN^T naive ms",
                              "NN^T tiled ms", "NN^T speedup",
                              "GA ref ms", "GA sweep ms", "peak RSS MiB"});

    for (const std::size_t n_machines : counts) {
        std::cout << "== " << n_machines << " machines x " << n_bench
                  << " benchmarks ==\n";

        // ---- generation --------------------------------------------
        dataset::ScaledSpecConfig gen_config;
        gen_config.machines = n_machines;
        gen_config.benchmarks = n_bench;
        gen_config.seed = seed;
        gen_config.threads = threads;
        const dataset::ScaledSpecGenerator generator(gen_config);
        auto t0 = util::monotonicNow();
        const dataset::PerfDatabase db = generator.generate();
        const double gen_ms = util::secondsSince(t0) * 1e3;
        record(json, "generate", n_machines, gen_ms,
               {{"scores_per_s",
                 util::formatFixed(static_cast<double>(n_machines) *
                                       static_cast<double>(n_bench) /
                                       (gen_ms / 1e3),
                                   0)}});

        // ---- columnar round trip -----------------------------------
        const std::string path =
            "bench_scale_" + std::to_string(n_machines) + ".dtc";
        t0 = util::monotonicNow();
        dataset::saveColumnar(db, path);
        const double save_ms = util::secondsSince(t0) * 1e3;

        t0 = util::monotonicNow();
        const auto columnar = dataset::ColumnarDatabase::open(path);
        const dataset::PerfDatabase reloaded = columnar.toDatabase();
        const double load_ms = util::secondsSince(t0) * 1e3;
        util::require(bitEqual(db.scores().data(),
                               reloaded.scores().data()),
                      "columnar round trip is not bit-identical");
        const double file_mib =
            static_cast<double>(columnar.fileBytes()) / (1024.0 * 1024.0);
        record(json, "columnar_save", n_machines, save_ms);
        record(json, "columnar_load", n_machines, load_ms,
               {{"file_mib", util::formatFixed(file_mib, 2)},
                {"mmap", columnar.memoryMapped() ? "1" : "0"}});
        std::remove(path.c_str());

        // ---- NN^T scan: naive vs tiled -----------------------------
        std::vector<std::size_t> predictive, targets;
        for (std::size_t m = 0; m < db.machineCount(); ++m)
            (m < n_predictive ? predictive : targets).push_back(m);
        const auto problem = core::makeProblemFromSplit(
            db, predictive, targets, db.benchmark(0).name);

        double naive_ms = 0.0;
        std::vector<double> naive_pred;
        if (n_machines <= naive_limit) {
            core::LinearTranspositionConfig config;
            config.scan = core::ScanMode::Naive;
            core::LinearTransposition nn(config);
            t0 = util::monotonicNow();
            naive_pred = nn.predict(problem);
            naive_ms = util::secondsSince(t0) * 1e3;
            record(json, "nnt_naive", n_machines, naive_ms);
        }

        core::LinearTranspositionConfig tiled_config;
        tiled_config.scan = core::ScanMode::Tiled;
        tiled_config.threads = threads;
        core::LinearTransposition tiled(tiled_config);
        t0 = util::monotonicNow();
        const auto tiled_pred = tiled.predict(problem);
        const double tiled_ms = util::secondsSince(t0) * 1e3;
        const double nnt_speedup =
            naive_ms > 0.0 && tiled_ms > 0.0 ? naive_ms / tiled_ms : 0.0;
        if (!naive_pred.empty())
            util::require(bitEqual(naive_pred, tiled_pred),
                          "NN^T tiled scan diverged from Naive");
        record(json, "nnt_tiled", n_machines, tiled_ms,
               {{"targets_per_s",
                 util::formatFixed(static_cast<double>(targets.size()) /
                                       (tiled_ms / 1e3),
                                   0)},
                {"speedup_vs_naive",
                 util::formatFixed(nnt_speedup, 2)}});

        // ---- GA-kNN predictApp: reference vs sweep -----------------
        const linalg::Matrix chars =
            dataset::MicaGenerator().generate(
                generator.benchmarkProfiles());
        baseline::GaKnnConfig ga_config;
        ga_config.ga.populationSize =
            static_cast<std::size_t>(args.getLong("ga-population"));
        ga_config.ga.generations =
            static_cast<std::size_t>(args.getLong("ga-generations"));
        // Train on the (machine-count-independent) predictive split so
        // the sweep isolates prediction cost.
        baseline::GaKnnModel model(ga_config);
        model.train(chars, db.selectMachines(predictive).scores());
        const std::vector<double> app_chars = chars.row(0);

        double ga_ref_ms = 0.0;
        std::vector<double> ga_ref_pred;
        if (n_machines <= naive_limit) {
            baseline::GaKnnConfig ref_config = ga_config;
            ref_config.sweepPredict = false;
            baseline::GaKnnModel ref(ref_config);
            ref.restore(model.weights(), model.trainingFitness());
            t0 = util::monotonicNow();
            ga_ref_pred =
                ref.predictApp(app_chars, chars, db.scores(), 0);
            ga_ref_ms = util::secondsSince(t0) * 1e3;
            record(json, "gaknn_reference", n_machines, ga_ref_ms);
        }

        baseline::GaKnnConfig sweep_config = ga_config;
        sweep_config.sweepPredict = true;
        sweep_config.predictThreads = threads;
        baseline::GaKnnModel sweep(sweep_config);
        sweep.restore(model.weights(), model.trainingFitness());
        t0 = util::monotonicNow();
        const auto ga_sweep_pred =
            sweep.predictApp(app_chars, chars, db.scores(), 0);
        const double ga_sweep_ms = util::secondsSince(t0) * 1e3;
        if (!ga_ref_pred.empty())
            util::require(bitEqual(ga_ref_pred, ga_sweep_pred),
                          "GA-kNN sweep predict diverged from reference");
        record(json, "gaknn_sweep", n_machines, ga_sweep_ms,
               {{"machines_per_s",
                 util::formatFixed(static_cast<double>(n_machines) /
                                       (ga_sweep_ms / 1e3),
                                   0)},
                {"speedup_vs_reference",
                 util::formatFixed(ga_ref_ms > 0.0 && ga_sweep_ms > 0.0
                                       ? ga_ref_ms / ga_sweep_ms
                                       : 0.0,
                                   2)}});

        const double rss = peakRssMiB();
        record(json, "peak_rss", n_machines, 0.0,
               {{"rss_mib", util::formatFixed(rss, 1)}});

        table.addRow(
            {std::to_string(n_machines), util::formatFixed(gen_ms, 1),
             util::formatFixed(save_ms, 1), util::formatFixed(load_ms, 1),
             util::formatFixed(file_mib, 2),
             naive_ms > 0.0 ? util::formatFixed(naive_ms, 1) : "-",
             util::formatFixed(tiled_ms, 1),
             nnt_speedup > 0.0 ? util::formatFixed(nnt_speedup, 2) : "-",
             ga_ref_ms > 0.0 ? util::formatFixed(ga_ref_ms, 1) : "-",
             util::formatFixed(ga_sweep_ms, 1),
             util::formatFixed(rss, 1)});
    }

    std::cout << "\n";
    table.print(std::cout);
    json.writeTo(args.get("json"));
    experiments::writeObservabilityOutputs(args);
    return 0;
}
