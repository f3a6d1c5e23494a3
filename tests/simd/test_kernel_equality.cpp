/**
 * @file
 * Exhaustive bit-equality of every tier (scalar, AVX2 and AVX-512)
 * against the written-out oracle (tests/simd/reference_kernels.h),
 * over the full kernel table, through a value-parameterized fixture.
 * Lengths 1..67 cover every (full-block, lane, remainder) phase of the
 * canonical lane-blocked reduction several times over; the GEMM and
 * MLP shapes stress remainder-heavy panels. Every comparison is
 * EXPECT_EQ on the doubles — bit identity, not tolerance — because
 * that is the contract the dispatch layer sells. A tier the build or
 * CPU lacks skips its instantiation cleanly (the runtime probe half of
 * the CI avx512 guard).
 */

#include <gtest/gtest.h>

#include <cstdint>
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

/** Non-negative operand (distance weights). */
std::vector<double>
weightOperand(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(0.0, 2.0);
    return v;
}

/** The kernel table of `tier`, or null when the build or CPU lacks it. */
const simd::KernelTable *
tableOf(simd::Tier tier)
{
    if (!simd::tierAvailable(tier))
        return nullptr;
    switch (tier) {
      case simd::Tier::Avx2:
        return simd::avx2Kernels();
      case simd::Tier::Avx512:
        return simd::avx512Kernels();
      default:
        return &simd::scalarKernels();
    }
}

namespace ref = simd::reference;

class KernelEquality : public ::testing::TestWithParam<simd::Tier>
{
  protected:
    void SetUp() override
    {
        tier_ = tableOf(GetParam());
        if (tier_ == nullptr)
            GTEST_SKIP() << simd::tierName(GetParam())
                         << " tier unavailable on this build/CPU";
    }

    const simd::KernelTable *tier_ = nullptr;
};

TEST_P(KernelEquality, ReductionsAgreeOnEveryLength)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 100 + n);
        const auto b = operand(n, 200 + n);
        const auto w = weightOperand(n, 300 + n);
        EXPECT_EQ(ref::dot(a.data(), b.data(), n),
                  tier_->dot(a.data(), b.data(), n));
        EXPECT_EQ(ref::squaredDistance(a.data(), b.data(), n),
                  tier_->squaredDistance(a.data(), b.data(), n));
        EXPECT_EQ(
            ref::weightedSquaredDistance(a.data(), b.data(), w.data(), n),
            tier_->weightedSquaredDistance(a.data(), b.data(), w.data(),
                                           n));
        EXPECT_EQ(ref::centeredDot(a.data(), b.data(), 0.125, -0.75, n),
                  tier_->centeredDot(a.data(), b.data(), 0.125, -0.75,
                                     n));
    }
}

TEST_P(KernelEquality, ElementwiseSweepsAgreeOnEveryLength)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto base = operand(n, 400 + n);
        const auto b = operand(n, 500 + n);

        auto r = base;
        auto t = base;
        ref::axpy(r.data(), b.data(), 1.25, n);
        tier_->axpy(t.data(), b.data(), 1.25, n);
        EXPECT_EQ(r, t);
    }
}

TEST_P(KernelEquality, GemmMicroAgreesOnRemainderHeavyShapes)
{
    const std::size_t shapes[] = {1,  2,  3,  5,  7,  8,  9, 15,
                                  16, 17, 31, 33, 63, 65, 67};
    for (std::size_t k : shapes) {
        for (std::size_t n : shapes) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " n=" + std::to_string(n));
            auto a = operand(k, 600 + k);
            if (k > 2)
                a[k / 2] = 0.0; // exercise the zero-skip
            const auto b = operand(k * n, 700 + k * 31 + n);
            auto cr = operand(n, 800 + n);
            auto ct = cr;
            ref::gemmMicro(k, n, a.data(), b.data(), n, cr.data());
            tier_->gemmMicro(k, n, a.data(), b.data(), n, ct.data());
            EXPECT_EQ(cr, ct);
        }
    }
}

TEST_P(KernelEquality, MlpKernelsAgreeAcrossLayerShapes)
{
    // 28 and 14 are MLP^T's hidden layer over the paper's benchmarks.
    const std::size_t widths[] = {1, 2, 3, 5, 8, 14, 15, 16, 17, 28, 33, 67};
    for (std::size_t in : widths) {
        for (std::size_t out : widths) {
            SCOPED_TRACE("in=" + std::to_string(in) +
                         " out=" + std::to_string(out));
            const auto wt = operand(in * out, 900 + in * 71 + out);
            const auto bias = operand(out, 1000 + out);
            const auto a_in = operand(in, 1100 + in);

            std::vector<double> nets_r(out, 0.0);
            std::vector<double> nets_t(out, 0.0);
            ref::mlpLayerNets(in, out, wt.data(), bias.data(), a_in.data(),
                              nets_r.data());
            tier_->mlpLayerNets(in, out, wt.data(), bias.data(),
                                a_in.data(), nets_t.data());
            EXPECT_EQ(nets_r, nets_t);

            // Deltas: `out` plays the successor width here.
            const auto d_next = operand(out, 1200 + out);
            std::vector<double> d_r(in, 0.0);
            std::vector<double> d_t(in, 0.0);
            ref::mlpLayerDeltas(in, out, wt.data(), d_next.data(),
                                d_r.data());
            tier_->mlpLayerDeltas(in, out, wt.data(), d_next.data(),
                                  d_t.data());
            EXPECT_EQ(d_r, d_t);

            // Momentum update mutates every buffer; compare them all.
            auto d2_r = operand(out, 1300 + out);
            auto d2_t = d2_r;
            auto wt_r = wt;
            auto wt_t = wt;
            auto pwt_r = operand(in * out, 1400 + in + out);
            auto pwt_t = pwt_r;
            auto bias_r = bias;
            auto bias_t = bias;
            auto pb_r = operand(out, 1500 + out);
            auto pb_t = pb_r;
            ref::mlpUpdateLayer(in, out, 0.05, 0.2, a_in.data(),
                                d2_r.data(), wt_r.data(), pwt_r.data(),
                                bias_r.data(), pb_r.data());
            tier_->mlpUpdateLayer(in, out, 0.05, 0.2, a_in.data(),
                                  d2_t.data(), wt_t.data(), pwt_t.data(),
                                  bias_t.data(), pb_t.data());
            EXPECT_EQ(d2_r, d2_t);
            EXPECT_EQ(wt_r, wt_t);
            EXPECT_EQ(pwt_r, pwt_t);
            EXPECT_EQ(bias_r, bias_t);
            EXPECT_EQ(pb_r, pb_t);
        }
    }
}

/**
 * The minibatch kernels. mlpBatchNets must equal the oracle's
 * mlpLayerNets run row by row (the per-sample engine's arithmetic);
 * mlpGradAccum must equal the zero-init sample-ascending rank-1
 * accumulation and OVERWRITE any garbage already in gw. Strided
 * variants cover lda/ldd/ldc larger than the row width.
 */
TEST_P(KernelEquality, BatchKernelsMatchPerSampleLoops)
{
    const std::size_t bns[] = {1, 2, 3, 4, 5, 8, 13};
    // Between them, ins and outs leave every column and unit remainder
    // from 1 to 7 at 8 lanes and from 1 to 3 at 4 lanes: the masked
    // loads and stores of the vector tiers' partial blocks.
    const std::size_t ins[] = {1, 2, 7, 11, 13, 16, 22, 28, 33};
    const std::size_t outs[] = {1, 2, 3, 4, 8, 13, 14, 17, 23};
    for (std::size_t bn : bns) {
        for (std::size_t in : ins) {
            for (std::size_t out : outs) {
                SCOPED_TRACE("bn=" + std::to_string(bn) +
                             " in=" + std::to_string(in) +
                             " out=" + std::to_string(out));
                const std::size_t lda = in + (bn % 3);  // packed + padded
                const std::size_t ldc = out + (bn % 2);
                const auto a =
                    operand(bn * lda, 2100 + bn * 131 + in * 7 + out);
                const auto wt = operand(in * out, 2200 + in * 71 + out);
                const auto bias = operand(out, 2300 + out);

                std::vector<double> nets_r(bn * ldc, 0.0);
                for (std::size_t s = 0; s < bn; ++s)
                    ref::mlpLayerNets(in, out, wt.data(), bias.data(),
                                      a.data() + s * lda,
                                      nets_r.data() + s * ldc);
                std::vector<double> nets_t(bn * ldc, 0.0);
                tier_->mlpBatchNets(bn, in, out, a.data(), lda,
                                    wt.data(), bias.data(), nets_t.data(),
                                    ldc);
                EXPECT_EQ(nets_r, nets_t);

                const std::size_t ldd = out + (in % 2);
                const auto d =
                    operand(bn * ldd, 2400 + bn * 17 + in + out);
                std::vector<double> gw_r(out * in, 0.0);
                for (std::size_t s = 0; s < bn; ++s)
                    for (std::size_t r = 0; r < out; ++r)
                        for (std::size_t col = 0; col < in; ++col)
                            gw_r[r * in + col] +=
                                d[s * ldd + r] * a[s * lda + col];

                // Prefill with garbage: the kernel must overwrite.
                auto gw_t = operand(out * in, 2500 + in + out);
                tier_->mlpGradAccum(bn, out, in, d.data(), ldd, a.data(),
                                    lda, gw_t.data());
                EXPECT_EQ(gw_r, gw_t);
            }
        }
    }
}

/**
 * gemmDotColumns: the column-major canonical-dot GEMM (samples as
 * lanes) must match the naive per-entry `bias[j] + dot(...)` loop over
 * the oracle's dot bit-for-bit, in every tier. k straddles the 16-term
 * canonical block (all-tail, exact block, block + tail, two blocks +
 * tail); m is never a multiple of a lane width or of the 128-sample
 * tile; the input and output rows are padded (lda, ldc > m) so a
 * stride slip shows.
 */
TEST_P(KernelEquality, GemmDotMatchesNaiveDotLoopAcrossBlocks)
{
    const std::size_t ms[] = {1, 3, 13, 127, 129, 301};
    const std::size_t ns[] = {1, 14};
    const std::size_t ks[] = {1, 15, 16, 17, 28, 33};
    for (std::size_t m : ms) {
        for (std::size_t n : ns) {
            for (std::size_t k : ks) {
                SCOPED_TRACE("m=" + std::to_string(m) +
                             " n=" + std::to_string(n) +
                             " k=" + std::to_string(k));
                const std::size_t lda = m + 3;
                const std::size_t ldc = m + 5;
                // A stored feature-major: k rows of lda samples.
                const auto at = operand(k * lda, 1800 + m * 131 + k);
                const auto b = operand(n * k, 1900 + n * 17 + k);
                const auto bias = operand(n, 2000 + n);

                std::vector<double> sample(k);
                std::vector<double> naive(n * ldc, 0.0);
                for (std::size_t i = 0; i < m; ++i) {
                    for (std::size_t kk = 0; kk < k; ++kk)
                        sample[kk] = at[kk * lda + i];
                    for (std::size_t j = 0; j < n; ++j)
                        naive[j * ldc + i] =
                            bias[j] +
                            ref::dot(sample.data(), b.data() + j * k, k);
                }

                std::vector<double> cols(n * ldc, 0.0);
                simd::gemmDotColumns(*tier_, m, n, k, at.data(), lda,
                                     b.data(), k, bias.data(), cols.data(),
                                     ldc);
                EXPECT_EQ(naive, cols);
            }
        }
    }
}

/**
 * Runs 50 mlpLaneStep calls of `tier` on operands carved from one
 * buffer: a 64-byte-aligned base moved `shift` doubles on, so every
 * array starts on a cache line (shift 0) or straddles lines (shift 1).
 * All kMlpLanes lanes hold data; only the first `lanes` are stepped.
 * Returns each output array (w1 ... pb2, act, delta, sse) restricted
 * to the stepped lanes, since the others are unspecified.
 */
std::vector<std::vector<double>>
runLaneSteps(const simd::KernelTable &tier, std::size_t in,
             std::size_t hidden, std::size_t lanes, std::size_t shift)
{
    constexpr std::size_t kS = simd::kMlpLanes;
    // Elements of x, y, w1, pw1, b1, pb1, w2, pw2, b2, pb2, act, delta
    // and sse, in MlpLaneStep's order.
    const std::size_t elements[] = {in,     1,      in * hidden, in * hidden,
                                    hidden, hidden, hidden,      hidden,
                                    1,      1,      hidden,      hidden,
                                    1};
    std::size_t total = 0;
    for (std::size_t e : elements)
        total += e * kS;
    std::vector<double> storage(total + kS + shift);
    const auto address = reinterpret_cast<std::uintptr_t>(storage.data());
    double *next =
        storage.data() + (64 - address % 64) % 64 / sizeof(double) + shift;
    util::Rng rng(3100 + in * 31 + hidden);
    std::vector<double *> arrays;
    for (std::size_t e : elements) {
        arrays.push_back(next);
        for (std::size_t i = 0; i < e * kS; ++i)
            next[i] = rng.uniform(-0.5, 0.5);
        next += e * kS;
    }

    double *x = arrays[0];
    double *y = arrays[1];
    const simd::MlpLaneStep step{lanes,      in,         hidden,
                                 0.3,        0.2,        x,
                                 y,          arrays[2],  arrays[3],
                                 arrays[4],  arrays[5],  arrays[6],
                                 arrays[7],  arrays[8],  arrays[9],
                                 arrays[10], arrays[11], arrays[12]};
    for (int s = 0; s < 50; ++s) {
        for (std::size_t i = 0; i < in * kS; ++i)
            x[i] = rng.uniform(0.0, 1.0);
        for (std::size_t l = 0; l < kS; ++l)
            y[l] = rng.uniform(0.0, 1.0);
        tier.mlpLaneStep(step);
    }

    std::vector<std::vector<double>> outputs;
    for (std::size_t a = 2; a < arrays.size(); ++a) {
        std::vector<double> &out = outputs.emplace_back();
        for (std::size_t e = 0; e < elements[a]; ++e)
            for (std::size_t l = 0; l < lanes; ++l)
                out.push_back(arrays[a][e * kS + l]);
    }
    return outputs;
}

/**
 * The lane step's bits depend neither on operand placement nor on the
 * tier: aligned and line-straddling operands give the scalar tier's
 * aligned result. Shapes: Table 2's 28 -> 14 -> 1 networks, and one
 * hidden unit, whose net is a canonical dot across a full block and a
 * tail; 8 live lanes and 5 (a partial group).
 */
TEST_P(KernelEquality, MlpLaneStepIgnoresAlignmentAndTier)
{
    const std::size_t hiddens[] = {14, 1};
    const std::size_t live[] = {8, 5};
    for (std::size_t hidden : hiddens) {
        for (std::size_t lanes : live) {
            SCOPED_TRACE("hidden=" + std::to_string(hidden) +
                         " lanes=" + std::to_string(lanes));
            const auto expected =
                runLaneSteps(simd::scalarKernels(), 28, hidden, lanes, 0);
            EXPECT_EQ(runLaneSteps(*tier_, 28, hidden, lanes, 0), expected);
            EXPECT_EQ(runLaneSteps(*tier_, 28, hidden, lanes, 1), expected);
        }
    }
}

const auto kTierName = [](const ::testing::TestParamInfo<simd::Tier> &param) {
    return std::string(simd::tierName(param.param));
};

INSTANTIATE_TEST_SUITE_P(VectorTiers, KernelEquality,
                         ::testing::Values(simd::Tier::Avx2,
                                           simd::Tier::Avx512),
                         kTierName);

// The scalar tier is the same body at one lane; its own instantiation
// leaves the vector tiers' test names as they were.
INSTANTIATE_TEST_SUITE_P(ScalarTier, KernelEquality,
                         ::testing::Values(simd::Tier::Scalar), kTierName);

/**
 * The degenerate-length property the golden-value tests rely on: below
 * one full block (n < 16) the canonical reduction IS the plain
 * sequential sum, so small fixtures keep their pre-SIMD values. Holds
 * for the oracle and for every available tier.
 */
TEST(KernelCanonicalReduction, ShortLengthsMatchSequentialSum)
{
    for (std::size_t n = 1; n < 16; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 1600 + n);
        const auto b = operand(n, 1700 + n);
        double seq = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            seq += a[i] * b[i];
        EXPECT_EQ(ref::dot(a.data(), b.data(), n), seq);
        for (simd::Tier tier : {simd::Tier::Scalar, simd::Tier::Avx2,
                                simd::Tier::Avx512})
            if (const simd::KernelTable *kt = tableOf(tier)) {
                EXPECT_EQ(kt->dot(a.data(), b.data(), n), seq)
                    << kt->name;
            }
    }
}

} // namespace
