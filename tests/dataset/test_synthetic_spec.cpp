/**
 * @file
 * Tests for the synthetic SPEC database generator, including the
 * structural properties the paper reproduction relies on.
 */

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "dataset/synthetic_spec.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "util/error.h"
#include "tests/linalg/approx_equals.h"

namespace
{

using namespace dtrank;
using namespace dtrank::dataset;

TEST(SyntheticSpec, ProducesThePaperShapedDatabase)
{
    const PerfDatabase db = makePaperDataset();
    EXPECT_EQ(db.machineCount(), 117u);
    EXPECT_EQ(db.benchmarkCount(), 29u);
    EXPECT_EQ(db.families().size(), 17u);
}

TEST(SyntheticSpec, DeterministicForFixedSeed)
{
    const PerfDatabase a = makePaperDataset(123);
    const PerfDatabase b = makePaperDataset(123);
    EXPECT_TRUE(test::approxEquals(a.scores(), b.scores(), 0.0));
}

TEST(SyntheticSpec, DifferentSeedsDiffer)
{
    const PerfDatabase a = makePaperDataset(1);
    const PerfDatabase b = makePaperDataset(2);
    EXPECT_FALSE(test::approxEquals(a.scores(), b.scores(), 1e-6));
}

TEST(SyntheticSpec, AllScoresPositiveAndPlausible)
{
    const PerfDatabase db = makePaperDataset();
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b) {
        for (std::size_t m = 0; m < db.machineCount(); ++m) {
            const double s = db.score(b, m);
            EXPECT_GT(s, 0.5);
            EXPECT_LT(s, 500.0);
        }
    }
}

TEST(SyntheticSpec, ThreeMachinesPerNickname)
{
    const PerfDatabase db = makePaperDataset();
    std::map<std::string, int> counts;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        ++counts[db.machine(m).family + "/" + db.machine(m).nickname];
    for (const auto &[name, count] : counts)
        EXPECT_EQ(count, kMachinesPerNickname) << name;
}

TEST(SyntheticSpec, WithinNicknameMachinesAreHighlyCorrelated)
{
    const PerfDatabase db = makePaperDataset();
    // Machines 0..2 share a nickname; their benchmark columns must be
    // nearly collinear in log space.
    std::vector<double> a;
    std::vector<double> b;
    for (std::size_t i = 0; i < db.benchmarkCount(); ++i) {
        a.push_back(std::log2(db.score(i, 0)));
        b.push_back(std::log2(db.score(i, 1)));
    }
    EXPECT_GT(stats::pearson(a, b), 0.98);
}

TEST(SyntheticSpec, LibquantumPeaksOnGainestown)
{
    const PerfDatabase db = makePaperDataset();
    const std::size_t lq = db.benchmarkIndex("libquantum");
    const auto scores = db.benchmarkScores(lq);
    const std::size_t best = stats::argMax(scores);
    EXPECT_EQ(db.machine(best).nickname, "Gainestown");
}

TEST(SyntheticSpec, NamdAndHmmerPeakOnMontecito)
{
    const PerfDatabase db = makePaperDataset();
    for (const char *bench : {"namd", "hmmer"}) {
        const auto scores = db.benchmarkScores(db.benchmarkIndex(bench));
        const std::size_t best = stats::argMax(scores);
        EXPECT_EQ(db.machine(best).nickname, "Montecito") << bench;
    }
}

TEST(SyntheticSpec, NamdAndHmmerScoreBelowAverage)
{
    // Section 6.2: namd and hmmer have lower-than-average SPEC scores.
    const PerfDatabase db = makePaperDataset();
    std::vector<double> bench_means;
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b)
        bench_means.push_back(stats::mean(db.benchmarkScores(b)));
    const double suite_mean = stats::mean(bench_means);
    EXPECT_LT(bench_means[db.benchmarkIndex("namd")], suite_mean);
    EXPECT_LT(bench_means[db.benchmarkIndex("hmmer")], suite_mean);
}

TEST(SyntheticSpec, LibquantumScoresAboveAverage)
{
    // Section 6.2: libquantum/cactusADM are higher-than-average.
    const PerfDatabase db = makePaperDataset();
    std::vector<double> bench_means;
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b)
        bench_means.push_back(stats::mean(db.benchmarkScores(b)));
    const double suite_mean = stats::mean(bench_means);
    EXPECT_GT(bench_means[db.benchmarkIndex("libquantum")], suite_mean);
    EXPECT_GT(bench_means[db.benchmarkIndex("cactusADM")], suite_mean);
}

TEST(SyntheticSpec, NewerMachinesAreFasterOnAverage)
{
    const PerfDatabase db = makePaperDataset();
    const auto gm = db.machineGeometricMeans();
    stats::Summary old_machines;
    stats::Summary new_machines;
    for (std::size_t m = 0; m < db.machineCount(); ++m) {
        if (db.machine(m).releaseYear <= 2006)
            old_machines.add(gm[m]);
        else if (db.machine(m).releaseYear >= 2008)
            new_machines.add(gm[m]);
    }
    EXPECT_GT(new_machines.mean(), old_machines.mean());
}

TEST(SyntheticSpec, ConfigurableMachinesPerNickname)
{
    SyntheticSpecConfig config;
    config.machinesPerNickname = 2;
    const PerfDatabase db = SyntheticSpecGenerator(config).generate();
    EXPECT_EQ(db.machineCount(), 39u * 2u);
}

TEST(SyntheticSpec, NoiseKnobChangesSpread)
{
    SyntheticSpecConfig quiet;
    quiet.measurementNoiseSigma = 0.0;
    quiet.variantCapabilityJitter = 0.0;
    quiet.fpDomainBiasSigma = 0.0;
    SyntheticSpecConfig noisy = quiet;
    noisy.measurementNoiseSigma = 0.2;

    const PerfDatabase a = SyntheticSpecGenerator(quiet).generate();
    const PerfDatabase b = SyntheticSpecGenerator(noisy).generate();

    // Within-nickname spread of one benchmark must grow with noise.
    auto spread = [](const PerfDatabase &db) {
        double acc = 0.0;
        for (std::size_t m = 0; m + 2 < db.machineCount(); m += 3) {
            const double s0 = std::log2(db.score(0, m));
            const double s1 = std::log2(db.score(0, m + 1));
            const double s2 = std::log2(db.score(0, m + 2));
            acc += stats::stddevSample({s0, s1, s2});
        }
        return acc;
    };
    EXPECT_GT(spread(b), spread(a));
}

TEST(SyntheticSpec, ValidatesConfig)
{
    SyntheticSpecConfig config;
    config.measurementNoiseSigma = -0.1;
    EXPECT_THROW(SyntheticSpecGenerator{config}, util::InvalidArgument);

    config = SyntheticSpecConfig{};
    config.variantSpread = -1.0;
    EXPECT_THROW(SyntheticSpecGenerator{config}, util::InvalidArgument);

    config = SyntheticSpecConfig{};
    config.machinesPerNickname = 0;
    EXPECT_THROW(SyntheticSpecGenerator{config}, util::InvalidArgument);

    config = SyntheticSpecConfig{};
    config.variantMemSpread = -0.1;
    EXPECT_THROW(SyntheticSpecGenerator{config}, util::InvalidArgument);
}

TEST(SyntheticSpec, StreamingBoostLiftsStreamingCodesOnServerNehalem)
{
    SyntheticSpecConfig with;
    SyntheticSpecConfig without = with;
    without.streamingBoost = 0.0;
    const PerfDatabase a = SyntheticSpecGenerator(with).generate();
    const PerfDatabase b = SyntheticSpecGenerator(without).generate();

    const std::size_t lq = a.benchmarkIndex("libquantum");
    const auto gainestown = a.machineIndicesByFamily("Intel Xeon");
    double ratio_sum = 0.0;
    std::size_t count = 0;
    for (std::size_t m : gainestown) {
        if (a.machine(m).nickname != "Gainestown")
            continue;
        ratio_sum += a.score(lq, m) / b.score(lq, m);
        ++count;
    }
    ASSERT_GT(count, 0u);
    // The boosted database scores 2^boost higher on these machines.
    EXPECT_NEAR(ratio_sum / static_cast<double>(count),
                std::exp2(with.streamingBoost), 0.01);
}

} // namespace
