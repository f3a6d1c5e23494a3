/**
 * @file
 * The masked sum kernel: all-valid bit-equality against the unmasked
 * reduction per tier (the mask=∅ half of the masked-kernel contract),
 * bit-equality of every tier with the written-out oracle
 * (tests/simd/reference_kernels.h) under random masks, and NaN
 * containment — a NaN-poisoned invalid cell must contribute a
 * literal +0.0 instead of leaking into the sum. Lengths 1..67 cover
 * every (full-block, lane, remainder) phase of the canonical
 * lane-blocked reduction, exactly as the unmasked equality suite does.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "simd/simd.h"
#include "tests/simd/reference_kernels.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

constexpr std::size_t kMaxLen = 67;

/** Deterministic operand with varied signs and magnitudes. */
std::vector<double>
operand(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-3.0, 3.0);
    return v;
}

/** Packed all-valid mask covering n elements (padding bits zero). */
std::vector<std::uint64_t>
allValidMask(std::size_t n)
{
    std::vector<std::uint64_t> words((n + 63) / 64, ~std::uint64_t{0});
    const std::size_t tail = n % 64;
    if (tail != 0)
        words.back() = (std::uint64_t{1} << tail) - 1;
    return words;
}

/** Packed mask with each bit drawn independently (density ~2/3). */
std::vector<std::uint64_t>
randomMask(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::uint64_t> words((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i)
        if (rng.uniform(0.0, 1.0) < 2.0 / 3.0)
            words[i / 64] |= std::uint64_t{1} << (i % 64);
    return words;
}

class MaskedKernels : public ::testing::TestWithParam<simd::Tier>
{
  protected:
    void SetUp() override
    {
        switch (GetParam()) {
          case simd::Tier::Scalar:
            tier_ = &simd::scalarKernels();
            break;
          case simd::Tier::Avx2:
            if (!simd::tierAvailable(simd::Tier::Avx2))
                GTEST_SKIP()
                    << "AVX2 tier unavailable on this build/CPU";
            tier_ = simd::avx2Kernels();
            break;
          case simd::Tier::Avx512:
            if (!simd::tierAvailable(simd::Tier::Avx512))
                GTEST_SKIP()
                    << "AVX-512 tier unavailable on this build/CPU";
            tier_ = simd::avx512Kernels();
            break;
          default:
            FAIL() << "unexpected tier parameter";
        }
    }

    const simd::KernelTable *tier_ = nullptr;
};

TEST_P(MaskedKernels, AllValidMaskMatchesUnmaskedBitForBit)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 100 + n);
        const auto valid = allValidMask(n);
        // maskedSum has no dense sibling; dot against ones runs the
        // identical canonical reduction with terms a[i] * 1.0 == a[i].
        const std::vector<double> ones(n, 1.0);
        EXPECT_EQ(tier_->maskedSum(a.data(), valid.data(), n),
                  tier_->dot(a.data(), ones.data(), n));
    }
}

/** "The scalar tier" here is its written-out form, the oracle. */
TEST_P(MaskedKernels, RandomMasksAgreeWithScalarTier)
{
    namespace ref = simd::reference;
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 400 + n);
        const auto valid = randomMask(n, 700 + n);
        EXPECT_EQ(ref::maskedSum(a.data(), valid.data(), n),
                  tier_->maskedSum(a.data(), valid.data(), n));
    }
}

TEST_P(MaskedKernels, NaNPoisonedInvalidCellsDoNotLeak)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        auto a = operand(n, 800 + n);
        const auto valid = randomMask(n, 1100 + n);

        // Reference: the same mask over a clean operand.
        const double ref_sum =
            tier_->maskedSum(a.data(), valid.data(), n);

        // Poison every invalid cell the way PerfDatabase does.
        for (std::size_t i = 0; i < n; ++i)
            if (((valid[i / 64] >> (i % 64)) & 1u) == 0)
                a[i] = nan;
        const double poisoned =
            tier_->maskedSum(a.data(), valid.data(), n);
        EXPECT_EQ(ref_sum, poisoned);
        EXPECT_FALSE(std::isnan(poisoned));
    }
}

TEST_P(MaskedKernels, AllInvalidMaskReducesToZero)
{
    for (std::size_t n : {std::size_t{1}, std::size_t{16},
                          std::size_t{64}, std::size_t{67}}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 1200 + n);
        const std::vector<std::uint64_t> none((n + 63) / 64, 0);
        EXPECT_EQ(tier_->maskedSum(a.data(), none.data(), n), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, MaskedKernels,
    ::testing::Values(simd::Tier::Scalar, simd::Tier::Avx2,
                      simd::Tier::Avx512),
    [](const ::testing::TestParamInfo<simd::Tier> &param) {
        return std::string(simd::tierName(param.param));
    });

} // namespace
