/**
 * @file
 * The end-to-end determinism guarantee of the dispatch layer: a full
 * method-suite split evaluation produces bit-identical results whether
 * the scalar, AVX2, or AVX-512 tier runs the kernels, at any thread
 * count.
 * This is the protocol-level counterpart of the per-kernel equality
 * tests — it exercises the canonical reduction through MLP training,
 * GA-kNN fitness, the matrix kernels and the rank statistics at once.
 */

#include <gtest/gtest.h>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "simd/simd.h"

namespace
{

using namespace dtrank;
using experiments::Method;
using simd::Tier;

experiments::MethodSuiteConfig
fastSuite(std::size_t threads)
{
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 20;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 4;
    config.parallel.threads = threads;
    return config;
}

/** Exact, field-by-field comparison of two split evaluations. */
void
expectIdentical(const experiments::SplitResults &lhs,
                const experiments::SplitResults &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (const auto &[method, lhs_tasks] : lhs) {
        SCOPED_TRACE(experiments::methodName(method));
        const auto it = rhs.find(method);
        ASSERT_NE(it, rhs.end());
        const auto &rhs_tasks = it->second;
        ASSERT_EQ(lhs_tasks.size(), rhs_tasks.size());
        for (std::size_t i = 0; i < lhs_tasks.size(); ++i) {
            const experiments::TaskResult &a = lhs_tasks[i];
            const experiments::TaskResult &b = rhs_tasks[i];
            EXPECT_EQ(a.benchmark, b.benchmark);
            // Bit-identical, not approximately equal: both tiers commit
            // to the canonical lane-blocked reduction order.
            EXPECT_EQ(a.predicted, b.predicted);
            EXPECT_EQ(a.actual, b.actual);
            EXPECT_EQ(a.metrics.rankCorrelation,
                      b.metrics.rankCorrelation);
            EXPECT_EQ(a.metrics.top1ErrorPercent,
                      b.metrics.top1ErrorPercent);
            EXPECT_EQ(a.metrics.meanErrorPercent,
                      b.metrics.meanErrorPercent);
            EXPECT_EQ(a.metrics.maxErrorPercent,
                      b.metrics.maxErrorPercent);
        }
    }
}

class SimdProtocolDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!simd::tierAvailable(simd::Tier::Avx2))
            GTEST_SKIP() << "AVX2 tier unavailable on this build/CPU";
        saved_ = simd::activeTier();
    }
    void TearDown() override
    {
        // saved_ defaults to Scalar, which is what a skipped (AVX2-less)
        // run is dispatching anyway, so restoring is always safe.
        simd::setTier(saved_);
    }

    /** Runs one full split under `tier` with `threads` workers. */
    experiments::SplitResults
    runSplit(Tier tier, std::size_t threads)
    {
        simd::setTier(tier);
        const experiments::SplitEvaluator evaluator(db_, chars_,
                                                    fastSuite(threads));
        std::vector<std::size_t> predictive;
        for (std::size_t m = 0; m < 12; ++m)
            predictive.push_back(m);
        const std::vector<std::size_t> target = {30, 31, 32, 33};
        return evaluator.evaluateSplit(predictive, target,
                                       experiments::extendedMethods(),
                                       5);
    }

    /** True when the widest tier can actually dispatch here. */
    static bool
    avx512Available()
    {
        return simd::tierAvailable(simd::Tier::Avx512);
    }

    dataset::PerfDatabase db_ = dataset::makePaperDataset();
    linalg::Matrix chars_ = dataset::MicaGenerator().generateForCatalog();

  private:
    Tier saved_ = Tier::Scalar;
};

TEST_F(SimdProtocolDeterminism, SerialSplitsMatchAcrossTiers)
{
    const auto reference = runSplit(Tier::Scalar, 1);
    expectIdentical(reference, runSplit(Tier::Avx2, 1));
    if (avx512Available())
        expectIdentical(reference, runSplit(Tier::Avx512, 1));
}

TEST_F(SimdProtocolDeterminism, TierAndThreadAxesAreIndependent)
{
    // scalar x 1 thread is the reference; every (tier, threads)
    // combination must land on the same bits.
    const auto reference = runSplit(Tier::Scalar, 1);
    expectIdentical(reference, runSplit(Tier::Avx2, 4));
    expectIdentical(reference, runSplit(Tier::Scalar, 4));
    if (avx512Available()) {
        expectIdentical(reference, runSplit(Tier::Avx512, 1));
        expectIdentical(reference, runSplit(Tier::Avx512, 4));
    }
}

} // namespace
