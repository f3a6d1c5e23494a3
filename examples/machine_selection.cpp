/**
 * @file
 * Predictive machine selection: which machines should a lab buy so
 * that future predictions are as accurate as possible? (Section 6.5.)
 *
 * The example clusters the machine catalog with k-medoids over the
 * architectural-signature features, prints the resulting clusters, and
 * shows how prediction quality grows with the number of owned machines
 * for clustered versus random shopping lists.
 */

#include <iostream>
#include <map>

#include "core/metrics.h"
#include "core/mlp_transposition.h"
#include "core/selection.h"
#include "core/transposition.h"
#include "dataset/synthetic_spec.h"
#include "ml/kmedoids.h"
#include "util/cli.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

namespace
{

/** Mean rank correlation over a few held-out benchmarks. */
double
predictionQuality(const dataset::PerfDatabase &db,
                  const std::vector<std::size_t> &owned)
{
    std::vector<std::size_t> targets;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (std::find(owned.begin(), owned.end(), m) == owned.end())
            targets.push_back(m);

    const std::vector<std::string> probes = {"gcc", "lbm", "povray",
                                             "mcf"};
    double acc = 0.0;
    for (const std::string &probe : probes) {
        const auto problem =
            core::makeProblemFromSplit(db, owned, targets, probe);
        core::MlpTranspositionConfig config;
        config.mlp.epochs = 150;
        core::MlpTransposition predictor(config);
        const auto predicted = predictor.predict(problem);
        const auto target_db = db.selectMachines(targets);
        const auto actual = target_db.benchmarkScores(
            target_db.benchmarkIndex(probe));
        acc += core::evaluatePrediction(actual, predicted)
                   .rankCorrelation;
    }
    return acc / static_cast<double>(probes.size());
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("machine_selection");
    args.addOption("clusters", "number of machine clusters to show", "5");
    args.addOption("seed", "dataset generator seed", "2011");
    if (!args.parse(argc, argv))
        return 0;

    const dataset::PerfDatabase db = dataset::makePaperDataset(
        static_cast<std::uint64_t>(args.getLong("seed")));

    std::vector<std::size_t> all(db.machineCount());
    for (std::size_t m = 0; m < all.size(); ++m)
        all[m] = m;

    // Show the cluster structure of the catalog.
    const auto k =
        static_cast<std::size_t>(args.getLong("clusters"));
    const auto points = core::machineFeatureVectors(db, all);
    const ml::KMedoids clusterer;
    util::Rng rng(3);
    const auto clusters = clusterer.cluster(points, k, rng);

    std::cout << "Architectural clusters of the catalog (medoid "
                 "first):\n";
    for (std::size_t c = 0; c < k; ++c) {
        std::map<std::string, int> families;
        for (std::size_t m = 0; m < all.size(); ++m)
            if (clusters.assignment[m] == c)
                ++families[db.machine(m).family];
        std::cout << "  cluster " << c + 1 << " ["
                  << db.machine(clusters.medoids[c]).name() << "]: ";
        bool first = true;
        for (const auto &[family, count] : families) {
            std::cout << (first ? "" : ", ") << family << " x" << count;
            first = false;
        }
        std::cout << "\n";
    }

    // Shopping-list quality: clustered vs random, growing budget.
    std::cout << "\nPrediction quality (mean rank correlation over 4 "
                 "probe apps):\n";
    util::TablePrinter table(
        {"machines owned", "k-medoids picks", "random picks"});
    util::Rng shop_rng(17);
    for (std::size_t budget : {2u, 4u, 6u}) {
        const auto smart =
            core::selectMachinesByKMedoids(db, all, budget, shop_rng);
        const auto lucky =
            core::selectRandomMachines(all, budget, shop_rng);
        table.addRow({std::to_string(budget),
                      util::formatFixed(predictionQuality(db, smart), 3),
                      util::formatFixed(predictionQuality(db, lucky),
                                        3)});
    }
    table.print(std::cout);
    return 0;
}
