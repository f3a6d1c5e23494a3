/**
 * @file
 * Suite explorer: the program-similarity analysis of the paper's
 * related work (Section 7.2) applied to our synthetic suite.
 *
 * PCA over the benchmark characteristics reveals the suite's
 * structure; k-medoids in the projected space proposes a reduced
 * representative suite; and the explorer flags the benchmarks that sit
 * far from everything — the outliers on which workload-similarity
 * methods fail (Section 6.2).
 */

#include <cmath>
#include <iostream>

#include "dataset/mica.h"
#include "linalg/vector_ops.h"
#include "ml/kmedoids.h"
#include "ml/pca.h"
#include "util/cli.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace dtrank;

int
main(int argc, char **argv)
{
    util::ArgParser args("suite_explorer");
    args.addOption("reduced", "size of the proposed reduced suite", "8");
    if (!args.parse(argc, argv))
        return 0;

    const auto &catalog = dataset::benchmarkCatalog();
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();

    // 1. PCA of the characteristic space.
    ml::Pca pca{};
    pca.fit(chars);
    const auto ratios = pca.explainedVarianceRatio();
    std::cout << "Characteristic space: "
              << chars.cols() << " metrics, effective dimensionality "
              << pca.componentsForVariance(0.95) << " (95% variance)\n"
              << "Leading components: "
              << util::formatFixed(ratios[0] * 100, 1) << "%, "
              << util::formatFixed(ratios[1] * 100, 1) << "%, "
              << util::formatFixed(ratios[2] * 100, 1) << "%\n\n";

    // 2. Benchmark map: first two principal components + isolation.
    const linalg::Matrix projected = pca.transform(chars, 2);
    std::vector<double> isolation(catalog.size(), 0.0);
    for (std::size_t b = 0; b < catalog.size(); ++b) {
        double nearest = 1e300;
        for (std::size_t j = 0; j < catalog.size(); ++j) {
            if (j == b)
                continue;
            nearest = std::min(
                nearest, linalg::squaredDistance(chars.row(b),
                                                 chars.row(j)));
        }
        isolation[b] = std::sqrt(nearest);
    }

    util::TablePrinter map({"benchmark", "domain", "PC1", "PC2",
                            "nearest-neighbour distance"});
    for (std::size_t b = 0; b < catalog.size(); ++b) {
        map.addRow({catalog[b].info.name,
                    catalog[b].info.domain ==
                            dataset::BenchmarkDomain::Integer
                        ? "int"
                        : "fp",
                    util::formatFixed(projected(b, 0), 2),
                    util::formatFixed(projected(b, 1), 2),
                    util::formatFixed(isolation[b], 2)});
    }
    map.print(std::cout);

    // 3. Flag the isolated benchmarks (top quartile of isolation).
    std::vector<double> sorted_iso = isolation;
    std::sort(sorted_iso.begin(), sorted_iso.end());
    const double cutoff = sorted_iso[catalog.size() * 3 / 4];
    std::cout << "\nIsolated benchmarks (no near neighbour — "
                 "workload-similarity methods will\nstruggle on "
                 "these):";
    for (std::size_t b = 0; b < catalog.size(); ++b)
        if (isolation[b] > cutoff + 1e-12)
            std::cout << " " << catalog[b].info.name;
    std::cout << "\n";

    // 4. Propose a reduced representative suite by k-medoids in the
    //    characteristic space.
    const auto k = static_cast<std::size_t>(args.getLong("reduced"));
    std::vector<std::vector<double>> points;
    for (std::size_t b = 0; b < catalog.size(); ++b)
        points.push_back(chars.row(b));
    const ml::KMedoids clusterer;
    util::Rng rng(5);
    const auto clusters = clusterer.cluster(points, k, rng);

    std::cout << "\nProposed reduced suite (" << k
              << " representatives):\n";
    for (std::size_t c = 0; c < k; ++c) {
        std::cout << "  * " << catalog[clusters.medoids[c]].info.name
                  << " (represents";
        for (std::size_t b = 0; b < catalog.size(); ++b)
            if (clusters.assignment[b] == c && b != clusters.medoids[c])
                std::cout << " " << catalog[b].info.name;
        std::cout << ")\n";
    }
    return 0;
}
