/**
 * @file
 * Golden digests of outputs that the Table 2 digest, the MlpWorkspace
 * goldens and the GA trajectory goldens do not reach: the DEEP^T,
 * SPL^T and 3NN^T predictions of one family split of the paper
 * dataset, k-medoids machine selection, and Spearman's rho on tied
 * inputs. Each digest is FNV-1a over the bits of the results, and each
 * must hold at every dispatch tier this CPU can run. A change that
 * claims to move no bit must leave every digest here as it is.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/selection.h"
#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "simd/simd.h"
#include "stats/correlation.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;
using experiments::Method;

/** FNV-1a, fed 64-bit words byte by byte. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (word >> (8 * b)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Tiers this build and CPU can dispatch. */
std::vector<simd::Tier>
availableTiers()
{
    std::vector<simd::Tier> tiers = {simd::Tier::Scalar};
    for (const simd::Tier tier : {simd::Tier::Avx2, simd::Tier::Avx512})
        if (simd::tierAvailable(tier))
            tiers.push_back(tier);
    return tiers;
}

/** Restores the active SIMD tier on scope exit. */
class TierGuard
{
  public:
    TierGuard() : saved_(simd::activeTier()) {}
    ~TierGuard() { simd::setTier(saved_); }
    TierGuard(const TierGuard &) = delete;
    TierGuard &operator=(const TierGuard &) = delete;

  private:
    simd::Tier saved_;
};

TEST(BitsGolden, ExtendedPredictorsOnAFamilySplit)
{
    // Target = the Intel Xeon family, predictive = every other machine;
    // DEEP^T at 20 epochs, the other two at their defaults.
    struct Golden
    {
        Method method;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {Method::SplT, 0x7f9a8c5e593ea2b6ULL},
        {Method::MultiNnT, 0xf139373c481d9582ULL},
        {Method::DeepT, 0xef4ba560f9e41783ULL},
    };
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    experiments::MethodSuiteConfig config;
    config.deep.mlp.epochs = 20;
    config.parallel.threads = 2;
    const experiments::SplitEvaluator evaluator(
        db, dataset::MicaGenerator().generateForCatalog(), config);
    const std::vector<std::size_t> target =
        db.machineIndicesByFamily("Intel Xeon");
    ASSERT_FALSE(target.empty());
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (std::find(target.begin(), target.end(), m) == target.end())
            predictive.push_back(m);

    TierGuard guard;
    for (const simd::Tier tier : availableTiers()) {
        simd::setTier(tier);
        SCOPED_TRACE(simd::tierName(tier));
        const experiments::SplitResults results = evaluator.evaluateSplit(
            predictive, target,
            {Method::SplT, Method::MultiNnT, Method::DeepT}, 7);
        for (const Golden &golden : goldens) {
            Digest digest;
            for (const experiments::TaskResult &task :
                 results.at(golden.method))
                for (double p : task.predicted)
                    digest.add(p);
            EXPECT_EQ(hex(digest.value()), hex(golden.digest))
                << experiments::methodName(golden.method);
        }
    }
}

TEST(BitsGolden, KMedoidsMachineSelection)
{
    const dataset::PerfDatabase db = dataset::makePaperDataset();
    std::vector<std::size_t> all(db.machineCount());
    for (std::size_t m = 0; m < all.size(); ++m)
        all[m] = m;
    Digest digest;
    util::Rng rng(2011);
    for (const std::size_t k : {2u, 5u, 12u, 30u}) {
        for (std::size_t m : core::selectMachinesByKMedoids(db, all, k, rng))
            digest.add(static_cast<std::uint64_t>(m));
    }
    // The draws the clustering consumed.
    digest.add(rng.uniform());
    EXPECT_EQ(hex(digest.value()), hex(0x45a5e1d63dcf95abULL));
}

TEST(BitsGolden, SpearmanOnTiedInputs)
{
    Digest digest;
    util::Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        // Few distinct values, so most ranks are shared.
        std::vector<double> x(25);
        std::vector<double> y(25);
        for (std::size_t i = 0; i < x.size(); ++i) {
            x[i] = static_cast<double>(rng.index(4));
            y[i] = static_cast<double>(rng.index(6)) * 0.5;
        }
        digest.add(stats::spearman(x, y));
    }
    EXPECT_EQ(hex(digest.value()), hex(0xe3aee4812f665fa2ULL));
}

} // namespace
