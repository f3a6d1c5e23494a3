/**
 * @file
 * Exhaustive scalar <-> vector-tier bit-equality over the full kernel
 * table, run once per vector tier (AVX2 and AVX-512) through a
 * value-parameterized fixture. Lengths 1..67 cover every (full-block,
 * lane, remainder) phase of the canonical lane-blocked reduction
 * several times over; the GEMM and MLP shapes stress remainder-heavy
 * panels. Every comparison is EXPECT_EQ on the doubles — bit identity,
 * not tolerance — because that is the contract the dispatch layer
 * sells. A tier the build or CPU lacks skips its instantiation
 * cleanly (the runtime probe half of the CI avx512 guard).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simd/simd.h"
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

class KernelEquality : public ::testing::TestWithParam<simd::Tier>
{
  protected:
    void SetUp() override
    {
        switch (GetParam()) {
          case simd::Tier::Avx2:
            if (simd::avx2Kernels() == nullptr ||
                !simd::cpuSupportsAvx2())
                GTEST_SKIP()
                    << "AVX2 tier unavailable on this build/CPU";
            vec_ = simd::avx2Kernels();
            break;
          case simd::Tier::Avx512:
            if (simd::avx512Kernels() == nullptr ||
                !simd::cpuSupportsAvx512())
                GTEST_SKIP()
                    << "AVX-512 tier unavailable on this build/CPU";
            vec_ = simd::avx512Kernels();
            break;
          default:
            FAIL() << "parameterized over vector tiers only";
        }
    }

    const simd::KernelTable &scalar_ = simd::scalarKernels();
    const simd::KernelTable *vec_ = nullptr;
};

TEST_P(KernelEquality, ReductionsAgreeOnEveryLength)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto a = operand(n, 100 + n);
        const auto b = operand(n, 200 + n);
        const auto w = weightOperand(n, 300 + n);
        EXPECT_EQ(scalar_.dot(a.data(), b.data(), n),
                  vec_->dot(a.data(), b.data(), n));
        EXPECT_EQ(scalar_.squaredDistance(a.data(), b.data(), n),
                  vec_->squaredDistance(a.data(), b.data(), n));
        EXPECT_EQ(scalar_.manhattan(a.data(), b.data(), n),
                  vec_->manhattan(a.data(), b.data(), n));
        EXPECT_EQ(
            scalar_.weightedSquaredDistance(a.data(), b.data(), w.data(),
                                            n),
            vec_->weightedSquaredDistance(a.data(), b.data(), w.data(),
                                          n));
        EXPECT_EQ(scalar_.centeredDot(a.data(), b.data(), 0.125, -0.75,
                                      n),
                  vec_->centeredDot(a.data(), b.data(), 0.125, -0.75,
                                    n));
    }
}

TEST_P(KernelEquality, ElementwiseSweepsAgreeOnEveryLength)
{
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto base = operand(n, 400 + n);
        const auto b = operand(n, 500 + n);

        auto s = base;
        auto v = base;
        scalar_.axpy(s.data(), b.data(), 1.25, n);
        vec_->axpy(v.data(), b.data(), 1.25, n);
        EXPECT_EQ(s, v);

        s = base;
        v = base;
        scalar_.scale(s.data(), -0.333, n);
        vec_->scale(v.data(), -0.333, n);
        EXPECT_EQ(s, v);

        s = base;
        v = base;
        scalar_.mulAdd(s.data(), b.data(), base.data(), n);
        vec_->mulAdd(v.data(), b.data(), base.data(), n);
        EXPECT_EQ(s, v);
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
                a[k / 2] = 0.0; // exercise the zero-skip in both tiers
            const auto b = operand(k * n, 700 + k * 31 + n);
            auto cs = operand(n, 800 + n);
            auto cv = cs;
            scalar_.gemmMicro(k, n, a.data(), b.data(), n, cs.data());
            vec_->gemmMicro(k, n, a.data(), b.data(), n, cv.data());
            EXPECT_EQ(cs, cv);
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

            std::vector<double> nets_s(out, 0.0);
            std::vector<double> nets_v(out, 0.0);
            scalar_.mlpLayerNets(in, out, wt.data(), bias.data(),
                                 a_in.data(), nets_s.data());
            vec_->mlpLayerNets(in, out, wt.data(), bias.data(),
                               a_in.data(), nets_v.data());
            EXPECT_EQ(nets_s, nets_v);

            // Deltas: `out` plays the successor width here.
            const auto d_next = operand(out, 1200 + out);
            std::vector<double> d_s(in, 0.0);
            std::vector<double> d_v(in, 0.0);
            scalar_.mlpLayerDeltas(in, out, wt.data(), d_next.data(),
                                   d_s.data());
            vec_->mlpLayerDeltas(in, out, wt.data(), d_next.data(),
                                 d_v.data());
            EXPECT_EQ(d_s, d_v);

            // Momentum update mutates every buffer; compare them all.
            auto d2_s = operand(out, 1300 + out);
            auto d2_v = d2_s;
            auto wt_s = wt;
            auto wt_v = wt;
            auto pwt_s = operand(in * out, 1400 + in + out);
            auto pwt_v = pwt_s;
            auto bias_s = bias;
            auto bias_v = bias;
            auto pb_s = operand(out, 1500 + out);
            auto pb_v = pb_s;
            scalar_.mlpUpdateLayer(in, out, 0.05, 0.2, a_in.data(),
                                   d2_s.data(), wt_s.data(),
                                   pwt_s.data(), bias_s.data(),
                                   pb_s.data());
            vec_->mlpUpdateLayer(in, out, 0.05, 0.2, a_in.data(),
                                 d2_v.data(), wt_v.data(),
                                 pwt_v.data(), bias_v.data(),
                                 pb_v.data());
            EXPECT_EQ(d2_s, d2_v);
            EXPECT_EQ(wt_s, wt_v);
            EXPECT_EQ(pwt_s, pwt_v);
            EXPECT_EQ(bias_s, bias_v);
            EXPECT_EQ(pb_s, pb_v);
        }
    }
}

/**
 * The minibatch kernels. mlpBatchNets must equal running mlpLayerNets
 * row by row (the per-sample engine's arithmetic) and the vector tier
 * must match the scalar tier bit-for-bit; mlpGradAccum must equal the
 * zero-init sample-ascending rank-1 accumulation and OVERWRITE any
 * garbage already in gw. Strided variants cover lda/ldd/ldc larger
 * than the row width.
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

                std::vector<double> ref(bn * ldc, 0.0);
                for (std::size_t s = 0; s < bn; ++s)
                    scalar_.mlpLayerNets(in, out, wt.data(),
                                         bias.data(), a.data() + s * lda,
                                         ref.data() + s * ldc);

                std::vector<double> nets_s(bn * ldc, 0.0);
                scalar_.mlpBatchNets(bn, in, out, a.data(), lda,
                                     wt.data(), bias.data(),
                                     nets_s.data(), ldc);
                std::vector<double> nets_v(bn * ldc, 0.0);
                vec_->mlpBatchNets(bn, in, out, a.data(), lda,
                                   wt.data(), bias.data(), nets_v.data(),
                                   ldc);
                for (std::size_t s = 0; s < bn; ++s)
                    for (std::size_t r = 0; r < out; ++r) {
                        EXPECT_EQ(ref[s * ldc + r], nets_s[s * ldc + r]);
                        EXPECT_EQ(ref[s * ldc + r], nets_v[s * ldc + r]);
                    }

                const std::size_t ldd = out + (in % 2);
                const auto d =
                    operand(bn * ldd, 2400 + bn * 17 + in + out);
                std::vector<double> gw_ref(out * in, 0.0);
                for (std::size_t s = 0; s < bn; ++s)
                    for (std::size_t r = 0; r < out; ++r)
                        for (std::size_t col = 0; col < in; ++col)
                            gw_ref[r * in + col] +=
                                d[s * ldd + r] * a[s * lda + col];

                // Prefill with garbage: the kernel must overwrite.
                auto gw_s = operand(out * in, 2500 + in + out);
                scalar_.mlpGradAccum(bn, out, in, d.data(), ldd,
                                     a.data(), lda, gw_s.data());
                EXPECT_EQ(gw_ref, gw_s);
                auto gw_v = operand(out * in, 2600 + in + out);
                vec_->mlpGradAccum(bn, out, in, d.data(), ldd, a.data(),
                                   lda, gw_v.data());
                EXPECT_EQ(gw_ref, gw_v);
            }
        }
    }
}

/**
 * gemmDotColumns: the column-major canonical-dot GEMM (samples as
 * lanes) must match the naive per-entry `bias[j] + dot(...)` loop
 * bit-for-bit, in the scalar tier and in the vector tier against both
 * tiers' own dot. k straddles the 16-term canonical block (all-tail,
 * exact block, block + tail, two blocks + tail); m is never a
 * multiple of a lane width or of the 128-sample tile; the input and
 * output rows are padded (lda, ldc > m) so a stride slip shows.
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
                std::vector<double> naive_s(n * ldc, 0.0);
                std::vector<double> naive_v(n * ldc, 0.0);
                for (std::size_t i = 0; i < m; ++i) {
                    for (std::size_t kk = 0; kk < k; ++kk)
                        sample[kk] = at[kk * lda + i];
                    for (std::size_t j = 0; j < n; ++j) {
                        naive_s[j * ldc + i] =
                            bias[j] + scalar_.dot(sample.data(),
                                                  b.data() + j * k, k);
                        naive_v[j * ldc + i] =
                            bias[j] + vec_->dot(sample.data(),
                                                b.data() + j * k, k);
                    }
                }

                std::vector<double> cols_s(n * ldc, 0.0);
                simd::gemmDotColumns(scalar_, m, n, k, at.data(), lda,
                                     b.data(), k, bias.data(),
                                     cols_s.data(), ldc);
                EXPECT_EQ(naive_s, cols_s);

                std::vector<double> cols_v(n * ldc, 0.0);
                simd::gemmDotColumns(*vec_, m, n, k, at.data(), lda,
                                     b.data(), k, bias.data(),
                                     cols_v.data(), ldc);
                EXPECT_EQ(naive_v, cols_v);
                EXPECT_EQ(naive_s, cols_v);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    VectorTiers, KernelEquality,
    ::testing::Values(simd::Tier::Avx2, simd::Tier::Avx512),
    [](const ::testing::TestParamInfo<simd::Tier> &info) {
        return std::string(simd::tierName(info.param));
    });

/**
 * The degenerate-length property the golden-value tests rely on: below
 * one full block (n < 16) the canonical reduction IS the plain
 * sequential sum, so small fixtures keep their pre-SIMD values.
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
        EXPECT_EQ(simd::scalarKernels().dot(a.data(), b.data(), n), seq);
    }
}

} // namespace
