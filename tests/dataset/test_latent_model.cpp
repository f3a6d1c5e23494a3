/**
 * @file
 * Invariant tests for the latent-model catalogs that encode Table 1 of
 * the paper and the SPEC CPU2006 benchmark suite.
 */

#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "dataset/latent_model.h"

namespace
{

using namespace dtrank;
using namespace dtrank::dataset;

TEST(NicknameCatalog, Has39NicknamesAcross17Families)
{
    const auto &catalog = nicknameCatalog();
    EXPECT_EQ(catalog.size(), 39u);
    std::set<std::string> families;
    for (const auto &n : catalog)
        families.insert(n.family);
    EXPECT_EQ(families.size(), 17u);
}

TEST(NicknameCatalog, YieldsThePapers117Machines)
{
    EXPECT_EQ(nicknameCatalog().size() * kMachinesPerNickname, 117u);
}

TEST(NicknameCatalog, NicknamesUniqueWithinFamily)
{
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto &n : nicknameCatalog()) {
        const auto key = std::make_pair(n.family, n.nickname);
        EXPECT_TRUE(seen.insert(key).second)
            << n.family << "/" << n.nickname << " duplicated";
    }
}

TEST(NicknameCatalog, ContainsThePapersKeyMachines)
{
    std::map<std::string, const NicknameProfile *> by_nickname;
    for (const auto &n : nicknameCatalog())
        by_nickname[n.family + "/" + n.nickname] = &n;
    EXPECT_TRUE(by_nickname.count("Intel Xeon/Gainestown"));
    EXPECT_TRUE(by_nickname.count("Intel Itanium/Montecito"));
    EXPECT_TRUE(by_nickname.count("Intel Core i7/Bloomfield XE"));
    EXPECT_TRUE(by_nickname.count("AMD Opteron (K10)/Istanbul"));
    EXPECT_TRUE(by_nickname.count("SPARC64 VII/Jupiter"));
    EXPECT_TRUE(by_nickname.count("UltraSPARC III/Cheetah+"));
}

TEST(NicknameCatalog, ReleaseYearsSpanTheStudy)
{
    int min_year = 9999;
    int max_year = 0;
    std::size_t year2009 = 0;
    std::size_t year2008 = 0;
    for (const auto &n : nicknameCatalog()) {
        min_year = std::min(min_year, n.releaseYear);
        max_year = std::max(max_year, n.releaseYear);
        if (n.releaseYear == 2009)
            ++year2009;
        if (n.releaseYear == 2008)
            ++year2008;
    }
    EXPECT_LE(min_year, 2005);
    EXPECT_EQ(max_year, 2009);
    // The future-prediction and subset protocols need machines in both
    // years.
    EXPECT_GE(year2009, 3u);
    EXPECT_GE(year2008, 3u);
}

TEST(NicknameCatalog, GainestownHasTheBandwidthCrown)
{
    double gainestown_membw = 0.0;
    double best_other = 0.0;
    for (const auto &n : nicknameCatalog()) {
        const double membw = n.capability[static_cast<std::size_t>(
            CapabilityDim::MemBandwidth)];
        if (n.nickname == "Gainestown")
            gainestown_membw = membw;
        else
            best_other = std::max(best_other, membw);
    }
    EXPECT_GT(gainestown_membw, 0.0);
    EXPECT_GE(gainestown_membw, best_other);
}

TEST(NicknameCatalog, MontecitoHasTheCacheCrown)
{
    double montecito_cache = 0.0;
    double best_other = 0.0;
    for (const auto &n : nicknameCatalog()) {
        const double cache = n.capability[static_cast<std::size_t>(
            CapabilityDim::Cache)];
        if (n.nickname == "Montecito")
            montecito_cache = cache;
        else
            best_other = std::max(best_other, cache);
    }
    EXPECT_GT(montecito_cache, best_other);
}

TEST(NicknameCatalog, StreamingBoostOnlyOnServerNehalem)
{
    for (const auto &n : nicknameCatalog()) {
        const bool is_server_nehalem =
            n.family == "Intel Xeon" &&
            (n.nickname == "Gainestown" || n.nickname == "Bloomfield" ||
             n.nickname == "Lynnfield");
        EXPECT_EQ(n.streamingPlatformBoost, is_server_nehalem)
            << n.family << "/" << n.nickname;
    }
}

TEST(BenchmarkCatalog, HasThe29SpecCpu2006Benchmarks)
{
    const auto &catalog = benchmarkCatalog();
    EXPECT_EQ(catalog.size(), 29u);
    std::size_t ints = 0;
    std::size_t fps = 0;
    for (const auto &b : catalog) {
        if (b.info.domain == BenchmarkDomain::Integer)
            ++ints;
        else
            ++fps;
    }
    EXPECT_EQ(ints, 12u);
    EXPECT_EQ(fps, 17u);
}

TEST(BenchmarkCatalog, NamesAreUniqueAndIncludeTheOutliers)
{
    std::set<std::string> names;
    for (const auto &b : benchmarkCatalog())
        EXPECT_TRUE(names.insert(b.info.name).second);
    for (const char *outlier :
         {"libquantum", "leslie3d", "cactusADM", "namd", "hmmer"})
        EXPECT_TRUE(names.count(outlier)) << outlier;
}

TEST(BenchmarkCatalog, DemandsAreDistributions)
{
    for (const auto &b : benchmarkCatalog()) {
        double sum = 0.0;
        for (double w : b.demand) {
            EXPECT_GE(w, 0.0) << b.info.name;
            sum += w;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9) << b.info.name;
    }
}

TEST(BenchmarkCatalog, OutliersHaveTheDocumentedProfiles)
{
    const auto membw = static_cast<std::size_t>(
        CapabilityDim::MemBandwidth);
    const auto cache = static_cast<std::size_t>(CapabilityDim::Cache);
    for (const auto &b : benchmarkCatalog()) {
        if (b.info.name == "libquantum") {
            EXPECT_GE(b.demand[membw], 0.6);
        }
        if (b.info.name == "leslie3d" || b.info.name == "cactusADM") {
            EXPECT_GE(b.demand[membw], 0.5);
        }
        if (b.info.name == "namd" || b.info.name == "hmmer") {
            EXPECT_GE(b.demand[cache], 0.45);
            // Lower-than-average scale offset (Section 6.2).
            EXPECT_LT(b.offset, 2.0);
        }
    }
}

/** Expected log2 score with no noise: offset + demand . capability. */
double
expectedLogScore(const BenchmarkProfile &benchmark,
                 const NicknameProfile &machine)
{
    double acc = benchmark.offset;
    for (std::size_t d = 0; d < kCapabilityDims; ++d)
        acc += benchmark.demand[d] * machine.capability[d];
    return acc;
}

TEST(ExpectedLogScore, NamdPeaksOnMontecito)
{
    const BenchmarkProfile *namd = nullptr;
    for (const auto &b : benchmarkCatalog())
        if (b.info.name == "namd")
            namd = &b;
    ASSERT_NE(namd, nullptr);

    double montecito = 0.0;
    double best_other = -1e9;
    for (const auto &m : nicknameCatalog()) {
        const double s = expectedLogScore(*namd, m);
        if (m.nickname == "Montecito")
            montecito = s;
        else
            best_other = std::max(best_other, s);
    }
    EXPECT_GT(montecito, best_other);
}

TEST(PaperOutliers, ListedBenchmarksExist)
{
    std::set<std::string> names;
    for (const auto &b : benchmarkCatalog())
        names.insert(b.info.name);
    // The outliers of the paper's Section 6.2.
    for (const char *outlier :
         {"leslie3d", "cactusADM", "libquantum", "namd", "hmmer"})
        EXPECT_TRUE(names.count(outlier)) << outlier;
}

} // namespace
