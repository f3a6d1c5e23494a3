/**
 * @file
 * The lane engine's contract: Mlp::fitLanes trains every network
 * bit-identically to a separate Mlp::fit on that network's own columns
 * — the same predictions, loss history and training-counter
 * increments — at every dispatch tier, for any lane count, including
 * a lane that diverges, drops out of its group and restarts alone.
 * Suite names contain "MlpLanes" so the TSan CI job's regex picks
 * them up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "obs_check.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;
using simd::Tier;

/** The training counters fitLanes must move exactly as fit() does. */
struct Counts
{
    std::uint64_t fits = 0;
    std::uint64_t epochs = 0;
    std::uint64_t retries = 0;
    std::uint64_t dropouts = 0;
};

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

Counts
snapshot()
{
    return {counterValue("dtrank_mlp_fits_total"),
            counterValue("dtrank_mlp_epochs_total"),
            counterValue("dtrank_mlp_retries_total"),
            counterValue("dtrank_mlp_lane_dropouts_total")};
}

Counts
delta(const Counts &before, const Counts &after)
{
    return {after.fits - before.fits, after.epochs - before.epochs,
            after.retries - before.retries,
            after.dropouts - before.dropouts};
}

/**
 * A shared training matrix of `benchmarks` columns and k networks,
 * network l reading every column but (l mod benchmarks) — the MLP^T
 * leave-one-out view — with a target of its own.
 */
struct LaneProblem
{
    Matrix x;
    std::vector<std::vector<std::size_t>> columns;
    std::vector<std::vector<double>> targets;
};

LaneProblem
makeLaneProblem(std::size_t rows, std::size_t benchmarks, std::size_t k,
                std::uint64_t seed)
{
    util::Rng rng(seed);
    LaneProblem p;
    p.x = Matrix(rows, benchmarks);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t b = 0; b < benchmarks; ++b)
            p.x(r, b) = rng.uniform(1.0, 60.0);
    for (std::size_t l = 0; l < k; ++l) {
        const std::size_t skip = l % benchmarks;
        std::vector<std::size_t> cols;
        for (std::size_t b = 0; b < benchmarks; ++b)
            if (b != skip)
                cols.push_back(b);
        std::vector<double> y(rows);
        for (std::size_t r = 0; r < rows; ++r)
            y[r] = 0.5 * p.x(r, skip) + 0.1 * p.x(r, (skip + 1) % benchmarks) +
                   rng.uniform(-1.0, 1.0);
        p.columns.push_back(std::move(cols));
        p.targets.push_back(std::move(y));
    }
    return p;
}

std::vector<ml::Mlp>
networks(const ml::MlpConfig &config, std::size_t k)
{
    std::vector<ml::Mlp> nets;
    for (std::size_t l = 0; l < k; ++l) {
        ml::MlpConfig cfg = config;
        cfg.seed = config.seed + 7919 * l;
        nets.emplace_back(cfg);
    }
    return nets;
}

/** Trains each network alone, as the per-network path does. */
std::vector<ml::Mlp>
fitEach(const ml::MlpConfig &config, const LaneProblem &p, Counts &moved)
{
    std::vector<ml::Mlp> nets = networks(config, p.columns.size());
    const Counts before = snapshot();
    for (std::size_t l = 0; l < nets.size(); ++l)
        nets[l].fit(p.x.selectColumns(p.columns[l]), p.targets[l]);
    moved = delta(before, snapshot());
    return nets;
}

std::vector<ml::Mlp>
fitTogether(const ml::MlpConfig &config, const LaneProblem &p,
            Counts &moved)
{
    std::vector<ml::Mlp> nets = networks(config, p.columns.size());
    const Counts before = snapshot();
    ml::Mlp::fitLanes(nets, p.x, p.columns, p.targets);
    moved = delta(before, snapshot());
    return nets;
}

/** Same loss history and same predictions on every training row. */
void
expectSameNetworks(const std::vector<ml::Mlp> &lhs,
                   const std::vector<ml::Mlp> &rhs, const LaneProblem &p)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t l = 0; l < lhs.size(); ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        ASSERT_TRUE(rhs[l].trained());
        EXPECT_EQ(lhs[l].lossHistory(), rhs[l].lossHistory());
        const Matrix xl = p.x.selectColumns(p.columns[l]);
        EXPECT_EQ(lhs[l].predictColumns(xl.transposed()),
                  rhs[l].predictColumns(xl.transposed()));
    }
}

void
expectSameCounts(const Counts &each, const Counts &together)
{
    EXPECT_EQ(each.fits, together.fits);
    EXPECT_EQ(each.epochs, together.epochs);
    EXPECT_EQ(each.retries, together.retries);
}

/** The MLP^T network: WEKA defaults, 28 features -> 14 sigmoid units. */
ml::MlpConfig
mlptConfig(std::size_t epochs)
{
    ml::MlpConfig config;
    config.epochs = epochs;
    config.seed = 11;
    return config;
}

class MlpLanes : public ::testing::TestWithParam<Tier>
{
  protected:
    void
    SetUp() override
    {
        saved_ = simd::activeTier();
        if (!simd::tierAvailable(GetParam()))
            GTEST_SKIP() << simd::tierName(GetParam())
                         << " not available here";
        simd::setTier(GetParam());
    }
    void TearDown() override { simd::setTier(saved_); }

  private:
    Tier saved_ = Tier::Scalar;
};

TEST_P(MlpLanes, MlptShapeMatchesSeparateFitsAtEveryLaneCount)
{
    ASSERT_TRUE(ml::Mlp::lanesSupport(mlptConfig(1)));
    for (std::size_t k : {1u, 3u, 8u, 29u}) {
        SCOPED_TRACE("k = " + std::to_string(k));
        const LaneProblem p = makeLaneProblem(24, 29, k, 100 + k);
        Counts each;
        Counts together;
        const auto ref = fitEach(mlptConfig(40), p, each);
        const auto lanes = fitTogether(mlptConfig(40), p, together);
        expectSameNetworks(ref, lanes, p);
        expectSameCounts(each, together);
        EXPECT_EQ(together.fits, k);
        EXPECT_EQ(together.dropouts, 0u);
        EXPECT_EQ(lanes[0].hiddenSizes(), std::vector<std::size_t>{14});
    }
}

TEST_P(MlpLanes, NormalizationDecayAndWideHiddenLayersMatch)
{
    // Range normalization inside the network (the non-transductive
    // MLP^T ablation) and an explicit hidden layer of more than 16
    // units (full canonical blocks in the output dot).
    ml::MlpConfig config = mlptConfig(25);
    config.hiddenLayers = {19};
    const LaneProblem p = makeLaneProblem(17, 9, 10, 5);
    Counts each;
    Counts together;
    expectSameNetworks(fitEach(config, p, each),
                       fitTogether(config, p, together), p);
    expectSameCounts(each, together);
}

TEST_P(MlpLanes, OneUnitHiddenLayersMatch)
{
    // A one-unit hidden layer computes its net as the per-sample
    // engine's single-unit forward, bias + canonical dot over the
    // inputs, not bias-first input-ascending adds. Two cases: WEKA's
    // automatic layer for two features (three benchmarks, one held
    // out), and an explicit {1} over 28 features (one full canonical
    // block plus a tail).
    for (std::size_t benchmarks : {3u, 29u}) {
        SCOPED_TRACE("benchmarks = " + std::to_string(benchmarks));
        ml::MlpConfig config = mlptConfig(30);
        if (benchmarks == 29)
            config.hiddenLayers = {1};
        ASSERT_TRUE(ml::Mlp::lanesSupport(config));
        for (std::size_t k : {1u, 3u, 8u}) {
            SCOPED_TRACE("k = " + std::to_string(k));
            const LaneProblem p = makeLaneProblem(21, benchmarks, k, 40 + k);
            Counts each;
            Counts together;
            const auto ref = fitEach(config, p, each);
            const auto lanes = fitTogether(config, p, together);
            expectSameNetworks(ref, lanes, p);
            expectSameCounts(each, together);
            EXPECT_EQ(lanes[0].hiddenSizes(), std::vector<std::size_t>{1});
        }
    }
}

TEST_P(MlpLanes, DeepShapeTakesThePerNetworkPath)
{
    // DEEP^T's shape at per-sample training: three hidden layers are
    // beyond the lane step, so fitLanes trains network by network.
    ml::MlpConfig config = mlptConfig(15);
    config.hiddenLayers = {16, 16, 16};
    EXPECT_FALSE(ml::Mlp::lanesSupport(config));
    const LaneProblem p = makeLaneProblem(12, 8, 3, 9);
    Counts each;
    Counts together;
    expectSameNetworks(fitEach(config, p, each),
                       fitTogether(config, p, together), p);
    expectSameCounts(each, together);
    EXPECT_EQ(together.dropouts, 0u);
}

TEST_P(MlpLanes, MixedConfigsTakeThePerNetworkPath)
{
    const LaneProblem p = makeLaneProblem(12, 8, 3, 13);
    std::vector<ml::Mlp> ref;
    std::vector<ml::Mlp> lanes;
    for (std::size_t l = 0; l < 3; ++l) {
        // Configs that differ in more than the seed cannot share lanes.
        ml::MlpConfig cfg = mlptConfig(10 + l);
        ref.emplace_back(cfg);
        lanes.emplace_back(cfg);
        ref.back().fit(p.x.selectColumns(p.columns[l]), p.targets[l]);
    }
    ml::Mlp::fitLanes(lanes, p.x, p.columns, p.targets);
    expectSameNetworks(ref, lanes, p);
}

TEST_P(MlpLanes, DivergedLaneRestartsAloneLikeFit)
{
    // Unnormalized, lane 2's targets are three orders of magnitude
    // larger than the others': its stochastic backprop blows up at the
    // default rate and only settles once the rate is halved. That lane
    // must leave its group and retry on the per-network path (seed +
    // attempt, halved rate) while the other lanes train on.
    ml::MlpConfig config = mlptConfig(30);
    config.normalize = false;
    LaneProblem p = makeLaneProblem(20, 29, 5, 24);
    for (std::size_t r = 0; r < p.x.rows(); ++r)
        for (std::size_t b = 0; b < p.x.cols(); ++b)
            p.x(r, b) /= 20.0;
    for (std::size_t l = 0; l < p.targets.size(); ++l)
        for (double &v : p.targets[l])
            v *= l == 2 ? 500.0 : 0.05;
    Counts each;
    Counts together;
    const auto ref = fitEach(config, p, each);
    const auto lanes = fitTogether(config, p, together);
    ASSERT_GT(each.retries, 0u) << "the forced divergence did not happen";
    expectSameNetworks(ref, lanes, p);
    expectSameCounts(each, together);
    EXPECT_EQ(together.dropouts, 1u);
}

TEST_P(MlpLanes, ConcurrentLaneGroupsMatchSerialOnes)
{
    const LaneProblem p = makeLaneProblem(16, 29, 29, 3);
    Counts unused;
    const auto serial = fitTogether(mlptConfig(20), p, unused);
    std::vector<std::vector<ml::Mlp>> parallel(4);
    util::parallelFor(4, parallel.size(), [&](std::size_t i) {
        parallel[i] = networks(mlptConfig(20), p.columns.size());
        ml::Mlp::fitLanes(parallel[i], p.x, p.columns, p.targets);
    });
    for (const auto &nets : parallel)
        expectSameNetworks(serial, nets, p);
}

TEST(MlpLaneMetrics, DropoutFamilyScrapesCleanThroughObsCheck)
{
    const LaneProblem p = makeLaneProblem(8, 5, 2, 1);
    std::vector<ml::Mlp> nets = networks(mlptConfig(2), 2);
    ml::Mlp::fitLanes(nets, p.x, p.columns, p.targets);
    const std::string scrape =
        obs::MetricsRegistry::global().scrapePrometheus();
    EXPECT_NE(scrape.find("# TYPE dtrank_mlp_lane_dropouts_total counter"),
              std::string::npos);
    const std::vector<std::string> errors =
        obs_check::checkPrometheusText(scrape);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, MlpLanes,
    ::testing::Values(Tier::Scalar, Tier::Avx2, Tier::Avx512),
    [](const ::testing::TestParamInfo<Tier> &param) {
        return std::string(simd::tierName(param.param));
    });

} // namespace
