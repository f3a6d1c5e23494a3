/**
 * @file
 * Unit tests for the SIMD dispatch layer: cpuid detection, tier name
 * parsing, the pure resolution rule, the strict/forgiving overrides
 * and the --simd CLI plumbing shared by the bench binaries.
 */

#include <gtest/gtest.h>

#include "experiments/bench_options.h"
#include "simd/simd.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/error.h"

namespace
{

using namespace dtrank;
using simd::Tier;

/** Saves the active tier and restores it after each test, so override
 *  tests cannot leak dispatch state into other tests in this binary. */
class SimdDispatch : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = simd::activeTier(); }
    void TearDown() override { simd::setTier(saved_); }

  private:
    Tier saved_ = Tier::Scalar;
};

TEST(SimdCpuid, FeatureStringIsConsistentWithAvx2Probe)
{
    const std::string features = simd::cpuFeatureString();
    EXPECT_FALSE(features.empty());
    // The avx2/avx512 probes and the feature string must agree — all
    // come from cpuid, through the same builtin.
    EXPECT_EQ(simd::cpuSupportsAvx2(),
              features.find("avx2") != std::string::npos);
    EXPECT_EQ(simd::cpuSupportsAvx512(),
              features.find("avx512f") != std::string::npos);
    EXPECT_EQ(simd::cpuSupportsFma(),
              features.find("fma") != std::string::npos);
#if defined(__x86_64__)
    // Baseline x86-64 guarantees SSE2; "none" would mean detection is
    // broken, not that the CPU is ancient.
    EXPECT_NE(features.find("sse2"), std::string::npos);
#endif
}

TEST(SimdCpuid, ScalarTableIsAlwaysPublished)
{
    const simd::KernelTable &table = simd::scalarKernels();
    EXPECT_STREQ(table.name, "scalar");
    EXPECT_NE(table.dot, nullptr);
    EXPECT_NE(table.mlpUpdateLayer, nullptr);
}

TEST(SimdCpuid, Avx2TableNameMatchesWhenCompiled)
{
    if (simd::avx2Kernels() == nullptr)
        GTEST_SKIP() << "binary built without AVX2 support";
    EXPECT_STREQ(simd::avx2Kernels()->name, "avx2");
}

TEST(SimdCpuid, Avx512TableNameMatchesWhenCompiled)
{
    if (simd::avx512Kernels() == nullptr)
        GTEST_SKIP() << "binary built without AVX-512 support";
    EXPECT_STREQ(simd::avx512Kernels()->name, "avx512");
}

TEST(SimdTierNames, RoundTrip)
{
    EXPECT_STREQ(simd::tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(simd::tierName(Tier::Avx2), "avx2");
    EXPECT_STREQ(simd::tierName(Tier::Avx512), "avx512");
    EXPECT_EQ(simd::parseTier("scalar"), Tier::Scalar);
    EXPECT_EQ(simd::parseTier("avx2"), Tier::Avx2);
    EXPECT_EQ(simd::parseTier("avx512"), Tier::Avx512);
    EXPECT_THROW(simd::parseTier("sse2"), util::InvalidArgument);
    EXPECT_THROW(simd::parseTier(""), util::InvalidArgument);
    EXPECT_THROW(simd::parseTier("AVX2"), util::InvalidArgument);
    EXPECT_THROW(simd::parseTier("avx512f"), util::InvalidArgument);
}

TEST(SimdResolveTier, AutoPicksBestAvailable)
{
    // The PR 4 three-argument truth table keeps its meaning (the
    // avx512 legs default to absent).
    EXPECT_EQ(simd::resolveTier(nullptr, true, true), Tier::Avx2);
    EXPECT_EQ(simd::resolveTier("", true, true), Tier::Avx2);
    EXPECT_EQ(simd::resolveTier("auto", true, true), Tier::Avx2);
    // Either leg missing degrades auto to scalar.
    EXPECT_EQ(simd::resolveTier(nullptr, false, true), Tier::Scalar);
    EXPECT_EQ(simd::resolveTier(nullptr, true, false), Tier::Scalar);
    EXPECT_EQ(simd::resolveTier(nullptr, false, false), Tier::Scalar);
    // avx512 outranks avx2 when both legs are present.
    EXPECT_EQ(simd::resolveTier(nullptr, true, true, true, true),
              Tier::Avx512);
    EXPECT_EQ(simd::resolveTier("auto", true, true, true, true),
              Tier::Avx512);
    EXPECT_EQ(simd::resolveTier(nullptr, true, true, false, true),
              Tier::Avx2);
    EXPECT_EQ(simd::resolveTier(nullptr, true, true, true, false),
              Tier::Avx2);
    // avx512-capable CPU without AVX2 kernels still degrades cleanly.
    EXPECT_EQ(simd::resolveTier(nullptr, false, false, true, true),
              Tier::Avx512);
}

TEST(SimdResolveTier, ExplicitRequestsAndFallbacks)
{
    // Scalar is always honored.
    EXPECT_EQ(simd::resolveTier("scalar", true, true), Tier::Scalar);
    EXPECT_EQ(simd::resolveTier("scalar", false, false), Tier::Scalar);
    // avx2 is honored when CPU and binary both provide it, otherwise
    // falls back (with a warning) instead of failing.
    EXPECT_EQ(simd::resolveTier("avx2", true, true), Tier::Avx2);
    EXPECT_EQ(simd::resolveTier("avx2", false, true), Tier::Scalar);
    EXPECT_EQ(simd::resolveTier("avx2", true, false), Tier::Scalar);
    // avx2 stays honored even when avx512 is also available.
    EXPECT_EQ(simd::resolveTier("avx2", true, true, true, true),
              Tier::Avx2);
    // avx512 is honored when available and falls back to the widest
    // remaining tier when not.
    EXPECT_EQ(simd::resolveTier("avx512", true, true, true, true),
              Tier::Avx512);
    EXPECT_EQ(simd::resolveTier("avx512", true, true, false, true),
              Tier::Avx2);
    EXPECT_EQ(simd::resolveTier("avx512", true, true, true, false),
              Tier::Avx2);
    EXPECT_EQ(simd::resolveTier("avx512", false, false, false, false),
              Tier::Scalar);
    // Unknown env values warn and fall back rather than abort startup.
    EXPECT_EQ(simd::resolveTier("neon", true, true), Tier::Scalar);
}

TEST(SimdResolveTier, Avx2WithoutFmaResolvesToScalar)
{
    // The avx2 tier's exp executes FMA instructions: an AVX2 CPU that
    // does not report FMA gets scalar, whether auto-resolved or asked
    // for, and an avx512 request falls back past avx2 to scalar too.
    EXPECT_EQ(simd::resolveTier(nullptr, true, true, false, false, false),
              Tier::Scalar);
    EXPECT_EQ(simd::resolveTier("avx2", true, true, false, false, false),
              Tier::Scalar);
    EXPECT_EQ(simd::resolveTier("avx512", true, true, false, true, false),
              Tier::Scalar);
    // AVX-512F carries its own FMA instructions.
    EXPECT_EQ(simd::resolveTier(nullptr, true, true, true, true, false),
              Tier::Avx512);
}

TEST(SimdResolveTier, TierAvailableMatchesTheCpuAndBinary)
{
    EXPECT_TRUE(simd::tierAvailable(Tier::Scalar));
    EXPECT_EQ(simd::tierAvailable(Tier::Avx2),
              simd::avx2Kernels() != nullptr && simd::cpuSupportsAvx2() &&
                  simd::cpuSupportsFma());
    EXPECT_EQ(simd::tierAvailable(Tier::Avx512),
              simd::avx512Kernels() != nullptr &&
                  simd::cpuSupportsAvx512());
}

TEST_F(SimdDispatch, SetTierSwitchesTheActiveTable)
{
    simd::setTier(Tier::Scalar);
    EXPECT_EQ(simd::activeTier(), Tier::Scalar);
    EXPECT_STREQ(simd::kernels().name, "scalar");
    if (simd::tierAvailable(Tier::Avx2)) {
        simd::setTier(Tier::Avx2);
        EXPECT_EQ(simd::activeTier(), Tier::Avx2);
        EXPECT_STREQ(simd::kernels().name, "avx2");
    }
    if (simd::tierAvailable(Tier::Avx512)) {
        simd::setTier(Tier::Avx512);
        EXPECT_EQ(simd::activeTier(), Tier::Avx512);
        EXPECT_STREQ(simd::kernels().name, "avx512");
    }
}

TEST_F(SimdDispatch, SetTierThrowsWhenAvx2Unavailable)
{
    if (simd::tierAvailable(Tier::Avx2))
        GTEST_SKIP() << "AVX2 available; the strict path cannot fail";
    EXPECT_THROW(simd::setTier(Tier::Avx2), util::InvalidArgument);
}

TEST_F(SimdDispatch, SetTierThrowsWhenAvx512Unavailable)
{
    if (simd::tierAvailable(Tier::Avx512))
        GTEST_SKIP()
            << "AVX-512 available; the strict path cannot fail";
    EXPECT_THROW(simd::setTier(Tier::Avx512), util::InvalidArgument);
}

TEST_F(SimdDispatch, RequestTierReturnsWhatItSelected)
{
    EXPECT_EQ(simd::requestTier(Tier::Scalar), Tier::Scalar);
    EXPECT_EQ(simd::activeTier(), Tier::Scalar);
    const Tier granted = simd::requestTier(Tier::Avx2);
    EXPECT_EQ(granted,
              simd::tierAvailable(Tier::Avx2) ? Tier::Avx2 : Tier::Scalar);
    EXPECT_EQ(simd::activeTier(), granted);
}

TEST_F(SimdDispatch, RequestAvx512FallsBackToWidestRemainingTier)
{
    const Tier granted = simd::requestTier(Tier::Avx512);
    if (simd::tierAvailable(Tier::Avx512))
        EXPECT_EQ(granted, Tier::Avx512);
    else
        EXPECT_EQ(granted, simd::tierAvailable(Tier::Avx2) ? Tier::Avx2
                                                           : Tier::Scalar);
    EXPECT_EQ(simd::activeTier(), granted);
}

/** Parses argv through the shared bench options. */
util::ArgParser
parsedArgs(std::vector<const char *> argv)
{
    util::ArgParser args("test_dispatch");
    experiments::addBenchOptions(args);
    argv.insert(argv.begin(), "test_dispatch");
    EXPECT_TRUE(args.parse(static_cast<int>(argv.size()),
                           const_cast<char **>(argv.data())));
    return args;
}

TEST_F(SimdDispatch, ApplySimdOptionScalarOverridesDispatch)
{
    const util::ArgParser args = parsedArgs({"--simd", "scalar"});
    EXPECT_EQ(experiments::applySimdOption(args), Tier::Scalar);
    EXPECT_EQ(simd::activeTier(), Tier::Scalar);
}

TEST_F(SimdDispatch, ApplySimdOptionAutoKeepsTheResolvedTier)
{
    const Tier before = simd::activeTier();
    const util::ArgParser args = parsedArgs({});
    EXPECT_EQ(experiments::applySimdOption(args), before);
    EXPECT_EQ(simd::activeTier(), before);
}

TEST_F(SimdDispatch, ApplySimdOptionRejectsUnknownTiers)
{
    const util::ArgParser args = parsedArgs({"--simd", "sse2"});
    EXPECT_THROW(experiments::applySimdOption(args),
                 util::InvalidArgument);
}

TEST_F(SimdDispatch, ApplySimdOptionRecordsJsonContext)
{
    util::BenchJsonWriter json("test_dispatch");
    const util::ArgParser args = parsedArgs({"--simd", "scalar"});
    experiments::applySimdOption(args, &json);
    const std::string doc = json.toJson();
    EXPECT_NE(doc.find("\"simd_tier\": \"scalar\""), std::string::npos);
    EXPECT_NE(doc.find("\"cpu_features\": \""), std::string::npos);
}

} // namespace
