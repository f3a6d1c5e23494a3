/**
 * @file
 * The project's exp (src/simd/exp.h) and the sigmoid built on it:
 *   - every tier's exp and sigmoid kernels equal the scalar tier (the
 *     W = 1 instance) bit for bit, over a seeded sweep and with every
 *     special input in every lane position of every length up to 19,
 *     so full vectors, masked tails and the scalar fallback all run;
 *   - exp is within 1 ULP of long double exp over the sweep, and the
 *     special cases (±0, tiny, ±Inf, NaN, overflow, underflow,
 *     subnormal results) give IEEE's answers;
 *   - a checked-in digest of the sweep pins its bits;
 *   - where glibc runs its FMA exp, the sweep equals std::exp bit for
 *     bit (the reproduction the implementation claims);
 *   - the 2^(k/128) table matches its definition, checked with exp2l;
 *   - fmaSoft and fmaExact, the scalar tier's fma, round once like
 *     std::fma, ties and cancellations included.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#if defined(__GLIBC__) && __has_include(<sys/platform/x86.h>)
#include <sys/platform/x86.h>
#define DTRANK_HAVE_GLIBC_CPU_FEATURES 1
#endif

#include "simd/exp.h"
#include "simd/exp_table.h"
#include "simd/simd.h"
#include "util/hash.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;
using simd::Tier;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Inputs on and around every boundary of exp's cases. */
std::vector<double>
specialInputs()
{
    return {
        0.0,
        -0.0,
        0x1p-60,
        -0x1p-60,
        0x1.fffffffffffffp-55, // largest |x| of the tiny case
        -0x1.fffffffffffffp-55,
        0x1p-54, // smallest |x| of the polynomial case
        -0x1p-54,
        std::nextafter(512.0, 0.0),
        512.0,
        -512.0,
        std::nextafter(-512.0, 0.0),
        1024.0,
        -1024.0,
        0x1.62e42fefa39efp+9, // 709.78...: largest finite result
        std::nextafter(0x1.62e42fefa39efp+9, kInf), // overflows
        -0x1.6232bdd7abcd2p+9, // -708.39...: near DBL_MIN
        -720.0,                // subnormal result
        -0x1.74385446d71c3p+9, // -744.44: about twice the least subnormal
        -0x1.74910d52d3051p+9, // -745.13...: rounds to the least subnormal
        std::nextafter(-0x1.74910d52d3052p+9, -kInf), // underflows to 0
        kInf,
        -kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7ff8000000001234}), // payload
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
    };
}

/**
 * The seeded sweep, 2^20 values from util::Rng's mt19937_64 engine
 * (whose output the standard fixes, unlike its distributions) mapped
 * by plain IEEE arithmetic, so every host builds the same inputs: in
 * turn uniform on [-40, 40] (the sigmoid's range), on [-746, 710]
 * (every finite exp), on [-746, -700] (subnormal results), and raw
 * bit patterns (Inf, NaN, huge, tiny), then the special inputs.
 */
std::vector<double>
sweepInputs()
{
    util::Rng rng(20111);
    auto &engine = rng.engine();
    const auto uniform = [&engine](double lo, double hi) {
        const double u =
            static_cast<double>(engine() >> 11) * 0x1p-53; // [0, 1)
        return lo + (hi - lo) * u;
    };
    std::vector<double> x(std::size_t{1} << 20);
    for (std::size_t i = 0; i < x.size(); ++i) {
        switch (i % 4) {
          case 0:
            x[i] = uniform(-40.0, 40.0);
            break;
          case 1:
            x[i] = uniform(-746.0, 710.0);
            break;
          case 2:
            x[i] = uniform(-746.0, -700.0);
            break;
          default:
            x[i] = std::bit_cast<double>(engine());
        }
    }
    for (const double s : specialInputs())
        x.push_back(s);
    return x;
}

/** The scalar tier applied to a copy of x. */
std::vector<double>
scalarApplied(void (*kernel)(std::size_t, double *),
              std::vector<double> x)
{
    kernel(x.size(), x.data());
    return x;
}

std::vector<const simd::KernelTable *>
availableTables()
{
    std::vector<const simd::KernelTable *> tables = {
        &simd::scalarKernels()};
    if (simd::tierAvailable(Tier::Avx2))
        tables.push_back(simd::avx2Kernels());
    if (simd::tierAvailable(Tier::Avx512))
        tables.push_back(simd::avx512Kernels());
    return tables;
}

/**
 * Bit equality, NaN payloads included. With `anyNan`, two NaNs match
 * whatever their signs: IEEE leaves the sign of an operation's NaN
 * unspecified, and compilers fold the sigmoid's 1 + e^(-x) path into
 * forms that keep or drop x's sign bit.
 */
::testing::AssertionResult
sameBits(const std::vector<double> &got, const std::vector<double> &want,
         const std::vector<double> &x, bool anyNan = false)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure() << "length differs";
    for (std::size_t i = 0; i < got.size(); ++i)
        if (std::bit_cast<std::uint64_t>(got[i]) !=
                std::bit_cast<std::uint64_t>(want[i]) &&
            !(anyNan && std::isnan(got[i]) && std::isnan(want[i])))
            return ::testing::AssertionFailure()
                   << "element " << i << ": x = " << std::hexfloat << x[i]
                   << " gives " << got[i] << ", want " << want[i];
    return ::testing::AssertionSuccess();
}

TEST(SimdExp, EveryTierMatchesTheScalarTierOverTheSweep)
{
    const std::vector<double> x = sweepInputs();
    const std::vector<double> exp_ref =
        scalarApplied(simd::scalarKernels().exp, x);
    const std::vector<double> sig_ref =
        scalarApplied(simd::scalarKernels().sigmoid, x);
    for (const simd::KernelTable *kt : availableTables()) {
        SCOPED_TRACE(kt->name);
        std::vector<double> y = x;
        kt->exp(y.size(), y.data());
        EXPECT_TRUE(sameBits(y, exp_ref, x));
        y = x;
        kt->sigmoid(y.size(), y.data());
        EXPECT_TRUE(sameBits(y, sig_ref, x, true));
    }
}

TEST(SimdExp, SpecialInputsAgreeInEveryLanePositionAndTail)
{
    // Each special input in every position of every length 1..19, the
    // other lanes ordinary: full vectors, masked tails and a vector
    // sent to the scalar path by one lane all give the scalar bits.
    for (const simd::KernelTable *kt : availableTables()) {
        SCOPED_TRACE(kt->name);
        for (const double s : specialInputs())
            for (std::size_t n = 1; n <= 19; ++n)
                for (std::size_t pos = 0; pos < n; ++pos) {
                    std::vector<double> x(n);
                    for (std::size_t i = 0; i < n; ++i)
                        x[i] = -3.0 + 0.37 * static_cast<double>(i);
                    x[pos] = s;
                    std::vector<double> y = x;
                    kt->exp(n, y.data());
                    ASSERT_TRUE(sameBits(
                        y, scalarApplied(simd::scalarKernels().exp, x), x))
                        << "n = " << n << ", position " << pos;
                    y = x;
                    kt->sigmoid(n, y.data());
                    ASSERT_TRUE(sameBits(
                        y, scalarApplied(simd::scalarKernels().sigmoid, x),
                        x, true))
                        << "n = " << n << ", position " << pos;
                }
    }
}

TEST(SimdExp, SigmoidIsOneOverOnePlusExpOfTheNegation)
{
    const std::vector<double> x = sweepInputs();
    std::vector<double> want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        want[i] = 1.0 / (1.0 + simd::exp(-x[i]));
    EXPECT_TRUE(sameBits(scalarApplied(simd::scalarKernels().sigmoid, x),
                         want, x, true));
}

/** The ULP of the double nearest v, subnormal spacing included. */
long double
ulpAt(long double v)
{
    const double d = std::fabs(static_cast<double>(v));
    if (d < DBL_MIN)
        return std::ldexp(1.0L, -1074);
    int e = 0;
    std::frexp(d, &e);
    return std::ldexp(1.0L, e - 53);
}

TEST(SimdExp, WithinOneUlpOfLongDoubleExp)
{
    const std::vector<double> x = sweepInputs();
    const std::vector<double> y = scalarApplied(simd::scalarKernels().exp, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (std::isnan(x[i])) {
            ASSERT_TRUE(std::isnan(y[i])) << "NaN must propagate";
            continue;
        }
        const long double ref = std::exp(static_cast<long double>(x[i]));
        if (ref > static_cast<long double>(DBL_MAX)) {
            // Beyond DBL_MAX by more than half an ULP rounds to Inf.
            if (ref - static_cast<long double>(DBL_MAX) >
                ulpAt(DBL_MAX) / 2) {
                ASSERT_EQ(y[i], kInf) << std::hexfloat << x[i];
            }
            continue;
        }
        ASSERT_LE(std::fabs(static_cast<long double>(y[i]) - ref),
                  ulpAt(ref))
            << std::hexfloat << "x = " << x[i] << ", exp = " << y[i];
    }
}

TEST(SimdExp, SpecialCasesGiveIeeeAnswers)
{
    EXPECT_EQ(simd::exp(0.0), 1.0);
    EXPECT_EQ(simd::exp(-0.0), 1.0);
    EXPECT_EQ(simd::exp(0x1p-60), 1.0);
    EXPECT_EQ(simd::exp(kInf), kInf);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd::exp(-kInf)),
              std::bit_cast<std::uint64_t>(0.0));
    EXPECT_TRUE(std::isnan(simd::exp(std::nan(""))));
    EXPECT_EQ(simd::exp(1024.0), kInf);
    EXPECT_EQ(simd::exp(709.79), kInf);
    EXPECT_TRUE(std::isfinite(simd::exp(0x1.62e42fefa39efp+9)));
    EXPECT_EQ(simd::exp(-1024.0), 0.0);
    EXPECT_EQ(simd::exp(-746.0), 0.0);
    EXPECT_EQ(simd::exp(-0x1.74910d52d3051p+9),
              std::numeric_limits<double>::denorm_min());
    const double sub = simd::exp(-720.0);
    EXPECT_GT(sub, 0.0);
    EXPECT_LT(sub, DBL_MIN);
    EXPECT_EQ(simd::exp(1.0), 0x1.5bf0a8b145769p+1); // e, correctly rounded
    double s[3] = {0.0, 800.0, -800.0};
    simd::sigmoid(3, s);
    EXPECT_EQ(s[0], 0.5);
    EXPECT_EQ(s[1], 1.0);
    EXPECT_EQ(s[2], 0.0);
}

TEST(SimdExp, SweepDigestIsPinned)
{
    // Any change to exp's bits anywhere in the sweep moves this digest.
    const std::vector<double> y =
        scalarApplied(simd::scalarKernels().exp, sweepInputs());
    const util::HashKey key = util::ContentHasher().add(y).key();
    EXPECT_EQ(key.hi, 0xe745a7dabde55d39ULL);
    EXPECT_EQ(key.lo, 0xeb728825fa48b2dbULL);
}

/** True when glibc's ifunc runs its FMA-built exp in this process. */
bool
libmExpIsGlibcFma()
{
#if defined(DTRANK_HAVE_GLIBC_CPU_FEATURES) && defined(CPU_FEATURE_ACTIVE)
    // CPU_FEATURE_ACTIVE reflects GLIBC_TUNABLES masking, as glibc's
    // own exp ifunc does (FMA and AVX2 select __exp_fma).
    return (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28)) &&
           CPU_FEATURE_ACTIVE(FMA) && CPU_FEATURE_ACTIVE(AVX2);
#else
    return false;
#endif
}

TEST(SimdExp, SweepEqualsGlibcFmaExp)
{
    if (!libmExpIsGlibcFma())
        GTEST_SKIP() << "libm's exp here is not glibc's FMA build";
    const std::vector<double> x = sweepInputs();
    std::vector<double> libm(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        libm[i] = std::exp(x[i]);
    EXPECT_TRUE(
        sameBits(scalarApplied(simd::scalarKernels().exp, x), libm, x));
}

TEST(SimdExp, TableMatchesItsDefinition)
{
    // Word 2k + 1 + (k << 45) is H[k], 2^(k/128) rounded to double;
    // word 2k is T[k], with H[k] * (1 + T[k]) = 2^(k/128) to far
    // beyond double precision (T[k] is the rounding of the exact
    // remainder, so the sum is off by at most 2^-107 relative).
    ASSERT_EQ(simd::kExpTableWords, 256u);
    for (std::uint64_t k = 0; k < 128; ++k) {
        const long double exact =
            std::exp2l(static_cast<long double>(k) / 128.0L);
        const double head =
            std::bit_cast<double>(simd::kExpTable[2 * k + 1] + (k << 45));
        const double tail = std::bit_cast<double>(simd::kExpTable[2 * k]);
        EXPECT_EQ(head, static_cast<double>(exact)) << "k = " << k;
        EXPECT_LT(std::fabs(tail), 0x1p-53) << "k = " << k;
        const long double joined =
            static_cast<long double>(head) +
            static_cast<long double>(head) * static_cast<long double>(tail);
        EXPECT_LE(std::fabs(joined - exact), std::ldexp(exact, -62))
            << "k = " << k;
    }
}

TEST(SimdExp, SoftFmaRoundsOnceLikeStdFma)
{
    // std::fma is libm's: exact in hardware or in software. Three kinds
    // of triple: operands spread over 2^+-200; c cancelling most of
    // a * b; and c + RN(a * b) on a midpoint of c's binade with a * b
    // inexact, where the unfused sum rounds the wrong way and
    // fmaSoft must fall through to fmaExact.
    util::Rng rng(4242);
    auto &engine = rng.engine();
    const auto unit = [&engine] { // (-1, 1), 53 random bits
        return (static_cast<double>(engine() >> 11) * 0x1p-53) * 2.0 - 1.0;
    };
    const auto scaled = [&](std::uint64_t spread) {
        return std::ldexp(unit(), static_cast<int>(engine() % (2 * spread)) -
                                      static_cast<int>(spread));
    };
    std::size_t ties = 0;
    for (std::size_t i = 0; i < 600000; ++i) {
        double a = scaled(100);
        double b = scaled(100);
        double c = scaled(200);
        if (i % 3 == 1) {
            c = -(a * b) * (1.0 + std::ldexp(unit(), -static_cast<int>(
                                                         engine() % 60)));
        } else if (i % 3 == 2) {
            // c in [1, 2) has ulp 2^-52; p an odd multiple of 2^-53.
            c = 1.0 + static_cast<double>(engine() >> 12) * 0x1p-52;
            const double p =
                static_cast<double>(2 * (engine() % 1024) + 1) * 0x1p-53;
            b = 1.0 + unit() * 0.5;
            a = p / b;
            if (a * b == p && std::fma(a, b, -p) != 0.0)
                ++ties;
        }
        const double want = std::fma(a, b, c);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(simd::fmaSoft(a, b, c)),
                  std::bit_cast<std::uint64_t>(want))
            << std::hexfloat << a << " * " << b << " + " << c;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(simd::fmaExact(a, b, c)),
                  std::bit_cast<std::uint64_t>(want))
            << std::hexfloat << a << " * " << b << " + " << c;
    }
    EXPECT_GT(ties, 10000u); // the midpoint triples do reach a tie
}

} // namespace
