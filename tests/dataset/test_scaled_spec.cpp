/**
 * @file
 * Unit tests for the scaled dataset generator: exact reproducibility
 * across thread counts and seeds, and preservation of the structural
 * invariants the methodology depends on (family count, outlier
 * fraction, score positivity) at 1k and 10k machines.
 */

#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "dataset/latent_model.h"
#include "dataset/scaled_spec.h"

namespace
{

using namespace dtrank;
using namespace dtrank::dataset;

constexpr std::size_t kMemBw =
    static_cast<std::size_t>(CapabilityDim::MemBandwidth);

/** Bitwise equality of two score matrices. */
bool
scoresBitEqual(const PerfDatabase &a, const PerfDatabase &b)
{
    const auto &da = a.scores().data();
    const auto &db = b.scores().data();
    return da.size() == db.size() &&
           std::memcmp(da.data(), db.data(),
                       da.size() * sizeof(double)) == 0;
}

PerfDatabase
generate(std::size_t machines, std::size_t benchmarks,
         std::uint64_t seed, std::size_t threads)
{
    ScaledSpecConfig config;
    config.machines = machines;
    config.benchmarks = benchmarks;
    config.seed = seed;
    config.threads = threads;
    return ScaledSpecGenerator(config).generate();
}

TEST(ScaledSpec, ThreadCountCannotChangeOutput)
{
    const auto serial = generate(1000, 29, 7, 1);
    const auto parallel = generate(1000, 29, 7, 4);
    ASSERT_EQ(serial.machineCount(), 1000u);
    EXPECT_TRUE(scoresBitEqual(serial, parallel));
    for (std::size_t m = 0; m < serial.machineCount(); ++m)
        ASSERT_EQ(serial.machine(m).name(), parallel.machine(m).name());
}

TEST(ScaledSpec, SameSeedReproducesDifferentSeedDoesNot)
{
    const auto first = generate(500, 29, 11, 0);
    const auto again = generate(500, 29, 11, 0);
    const auto other = generate(500, 29, 12, 0);
    EXPECT_TRUE(scoresBitEqual(first, again));
    EXPECT_FALSE(scoresBitEqual(first, other));
}

TEST(ScaledSpec, PaperSizeKeepsPaperShape)
{
    const auto db = generate(117, 29, 2011, 0);
    EXPECT_EQ(db.machineCount(), 117u);
    EXPECT_EQ(db.benchmarkCount(), 29u);
    EXPECT_EQ(db.families().size(), 17u);
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b)
        for (std::size_t m = 0; m < db.machineCount(); ++m)
            ASSERT_GT(db.score(b, m), 0.0);
}

TEST(ScaledSpec, FamilyStructureMatchesNicknameProfilesAt1k)
{
    const std::size_t machines = 1000;
    const auto db = generate(machines, 29, 2011, 0);
    const std::size_t n_nick =
        (machines + kMachinesPerNickname - 1) / kMachinesPerNickname;
    const auto profiles = makeScaledNicknameProfiles(n_nick, 2011);

    std::set<std::string> expected;
    for (const auto &p : profiles)
        expected.insert(p.family);
    EXPECT_EQ(db.families().size(), expected.size());
    EXPECT_GT(db.families().size(), 17u);
}

TEST(ScaledSpec, FamilyStructureMatchesNicknameProfilesAt10k)
{
    const std::size_t machines = 10000;
    const auto db = generate(machines, 29, 2011, 0);
    EXPECT_EQ(db.machineCount(), machines);
    const std::size_t n_nick =
        (machines + kMachinesPerNickname - 1) / kMachinesPerNickname;
    const auto profiles = makeScaledNicknameProfiles(n_nick, 2011);
    std::set<std::string> expected;
    for (const auto &p : profiles)
        expected.insert(p.family);
    EXPECT_EQ(db.families().size(), expected.size());
    // Every generation multiplies the 17 base families.
    EXPECT_GE(db.families().size(), 17u * (n_nick / 39));
}

TEST(ScaledSpec, DerivedNicknamesInheritStreamingBoostAndYear)
{
    const auto profiles = makeScaledNicknameProfiles(78, 5);
    const auto &catalog = nicknameCatalog();
    ASSERT_EQ(catalog.size(), 39u);
    for (std::size_t i = 39; i < 78; ++i) {
        const auto &base = catalog[i % 39];
        EXPECT_EQ(profiles[i].streamingPlatformBoost,
                  base.streamingPlatformBoost);
        EXPECT_EQ(profiles[i].releaseYear, base.releaseYear);
        EXPECT_EQ(profiles[i].vendor, base.vendor);
        EXPECT_NE(profiles[i].family, base.family);
    }
}

TEST(ScaledSpec, OutlierFractionExactlyPreserved)
{
    const auto &catalog = benchmarkCatalog();
    std::size_t base_mem_cluster = 0;
    std::size_t base_boosted = 0;
    for (const auto &b : catalog) {
        if (b.demand[kMemBw] >= 0.30)
            ++base_mem_cluster;
        if (b.demand[kMemBw] >= 0.50)
            ++base_boosted;
    }
    ASSERT_GT(base_mem_cluster, 0u);

    const auto profiles = makeScaledBenchmarkProfiles(2 * 29, 2011);
    std::size_t mem_cluster = 0;
    std::size_t boosted = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &base = catalog[i % 29];
        // Bandwidth demand is copied bit-exactly, so both the MICA
        // memory-cluster cut (0.30) and the streaming-boost cut (0.50)
        // see the same fraction at any scale.
        EXPECT_EQ(profiles[i].demand[kMemBw], base.demand[kMemBw]);
        if (profiles[i].demand[kMemBw] >= 0.30)
            ++mem_cluster;
        if (profiles[i].demand[kMemBw] >= 0.50)
            ++boosted;
    }
    EXPECT_EQ(mem_cluster, 2 * base_mem_cluster);
    EXPECT_EQ(boosted, 2 * base_boosted);
}

TEST(ScaledSpec, DerivedBenchmarkDemandStaysNormalized)
{
    const auto profiles = makeScaledBenchmarkProfiles(3 * 29, 3);
    for (const auto &p : profiles) {
        double sum = 0.0;
        for (std::size_t d = 0; d < kCapabilityDims; ++d) {
            EXPECT_GE(p.demand[d], 0.0);
            sum += p.demand[d];
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

} // namespace
