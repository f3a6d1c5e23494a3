/**
 * @file
 * Tests for the synthetic MICA characteristic generator, including the
 * outlier geometry the GA-kNN baseline's documented weakness rests on.
 */

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "dataset/mica.h"
#include "linalg/vector_ops.h"
#include "util/error.h"
#include "tests/linalg/approx_equals.h"

namespace
{

using namespace dtrank;
using namespace dtrank::dataset;

/** Indices of the k nearest rows to row `query` (unweighted). */
std::vector<std::size_t>
nearestRows(const linalg::Matrix &chars, std::size_t query, std::size_t k)
{
    std::vector<std::pair<double, std::size_t>> dist;
    for (std::size_t j = 0; j < chars.rows(); ++j) {
        if (j == query)
            continue;
        dist.emplace_back(
            linalg::squaredDistance(chars.row(query), chars.row(j)), j);
    }
    std::sort(dist.begin(), dist.end());
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < k && i < dist.size(); ++i)
        out.push_back(dist[i].second);
    return out;
}

TEST(Mica, ShapeMatchesCatalog)
{
    const linalg::Matrix chars = MicaGenerator().generateForCatalog();
    EXPECT_EQ(chars.rows(), benchmarkCatalog().size());
    EXPECT_EQ(chars.cols(), 12u);
}

TEST(Mica, DeterministicForFixedSeed)
{
    const linalg::Matrix a = MicaGenerator().generateForCatalog();
    const linalg::Matrix b = MicaGenerator().generateForCatalog();
    EXPECT_TRUE(test::approxEquals(a, b, 0.0));
}

TEST(Mica, StandardizedColumnsHaveZeroMeanUnitVariance)
{
    const linalg::Matrix chars = MicaGenerator().generateForCatalog();
    for (std::size_t c = 0; c < chars.cols(); ++c) {
        double mean = 0.0;
        for (std::size_t r = 0; r < chars.rows(); ++r)
            mean += chars(r, c);
        mean /= static_cast<double>(chars.rows());
        EXPECT_NEAR(mean, 0.0, 1e-9);
    }
}

TEST(Mica, ClusterAssignmentFollowsDemandAndDomain)
{
    for (const auto &b : benchmarkCatalog()) {
        const double membw = b.demand[static_cast<std::size_t>(
            CapabilityDim::MemBandwidth)];
        const MicaCluster cluster = micaClusterOf(b);
        if (membw >= 0.30) {
            EXPECT_EQ(cluster, MicaCluster::Memory) << b.info.name;
        } else if (b.info.domain == BenchmarkDomain::Integer) {
            EXPECT_EQ(cluster, MicaCluster::IntCompute) << b.info.name;
        } else {
            EXPECT_EQ(cluster, MicaCluster::FpNumeric) << b.info.name;
        }
    }
}

TEST(Mica, DisguisedOutliersHaveNoMemoryNeighbours)
{
    // The core property behind the paper's GA-kNN failures: the
    // nearest neighbours of leslie3d, cactusADM and libquantum are all
    // compute benchmarks in (unweighted) characteristic space.
    const auto &catalog = benchmarkCatalog();
    const linalg::Matrix chars = MicaGenerator().generateForCatalog();
    for (const auto &[outlier, twin] : characteristicDisguises()) {
        std::size_t row = catalog.size();
        for (std::size_t b = 0; b < catalog.size(); ++b)
            if (catalog[b].info.name == outlier)
                row = b;
        ASSERT_LT(row, catalog.size()) << outlier;

        for (std::size_t j : nearestRows(chars, row, 10)) {
            const double membw =
                catalog[j].demand[static_cast<std::size_t>(
                    CapabilityDim::MemBandwidth)];
            EXPECT_LT(membw, 0.45)
                << outlier << " neighbours " << catalog[j].info.name;
        }
    }
}

TEST(Mica, DisguisedOutliersStayOutOfMainstreamNeighbourLists)
{
    const auto &catalog = benchmarkCatalog();
    const auto &disguises = characteristicDisguises();
    const linalg::Matrix chars = MicaGenerator().generateForCatalog();

    std::set<std::string> disguised;
    for (const auto &[outlier, twin] : disguises)
        disguised.insert(outlier);

    for (std::size_t b = 0; b < catalog.size(); ++b) {
        if (disguised.count(catalog[b].info.name))
            continue;
        for (std::size_t j : nearestRows(chars, b, 10))
            EXPECT_FALSE(disguised.count(catalog[j].info.name))
                << catalog[b].info.name << " neighbours "
                << catalog[j].info.name;
    }
}

TEST(Mica, HonestModeRestoresMemoryNeighbours)
{
    // With disguises disabled, libquantum's neighbours include other
    // memory-bound codes — the ablation where GA-kNN has no weakness.
    MicaConfig config;
    config.disguiseOutliers = false;
    const auto &catalog = benchmarkCatalog();
    const linalg::Matrix chars =
        MicaGenerator(config).generateForCatalog();

    std::size_t lq = catalog.size();
    for (std::size_t b = 0; b < catalog.size(); ++b)
        if (catalog[b].info.name == "libquantum")
            lq = b;
    ASSERT_LT(lq, catalog.size());

    bool found_memory_neighbour = false;
    for (std::size_t j : nearestRows(chars, lq, 5)) {
        const double membw = catalog[j].demand[static_cast<std::size_t>(
            CapabilityDim::MemBandwidth)];
        if (membw >= 0.40)
            found_memory_neighbour = true;
    }
    EXPECT_TRUE(found_memory_neighbour);
}

TEST(Mica, DisguiseFallsBackWhenTwinIsAbsent)
{
    // Generate over a subset that contains libquantum but not its
    // twin: the generator must fall back to honest characteristics
    // instead of failing.
    std::vector<BenchmarkProfile> subset;
    for (const auto &b : benchmarkCatalog())
        if (b.info.name == "libquantum" || b.info.name == "mcf" ||
            b.info.name == "gcc" || b.info.name == "lbm")
            subset.push_back(b);
    ASSERT_EQ(subset.size(), 4u);
    const linalg::Matrix chars = MicaGenerator().generate(subset);
    EXPECT_EQ(chars.rows(), 4u);
}

TEST(Mica, RejectsEmptyProfileList)
{
    EXPECT_THROW(MicaGenerator().generate({}), util::InvalidArgument);
}

} // namespace
