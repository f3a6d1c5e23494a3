/**
 * @file
 * The portable scalar tier. This file IS the canonical-reduction
 * specification: the 16 lane-blocked partials and the fixed combine
 * tree written out in plain C++. The AVX2 tier must land on exactly
 * these bits (enforced by tests/simd/test_kernel_equality.cpp), so any
 * change to a summation order here is a breaking change to the
 * determinism contract.
 *
 * Compiled with -ffp-contract=off (see src/simd/CMakeLists.txt): a
 * compiler-contracted fused multiply-add rounds differently from the
 * separate mul+add both tiers commit to.
 */

#include "simd/simd.h"

#include <cmath>

#include "simd/mlp_lane_step.h"

namespace dtrank::simd
{

namespace
{

constexpr std::size_t kBlock = 16; // 4 lanes x 4-way unroll

/**
 * The fixed combine tree over one block's partials: vector adds
 * (s[l] + s[l+4]) + (s[l+8] + s[l+12]) per lane l, then the 128-bit
 * low/high fold (L0 + L2) + (L1 + L3).
 */
inline double
combinePartials(const double s[kBlock])
{
    const double l0 = (s[0] + s[4]) + (s[8] + s[12]);
    const double l1 = (s[1] + s[5]) + (s[9] + s[13]);
    const double l2 = (s[2] + s[6]) + (s[10] + s[14]);
    const double l3 = (s[3] + s[7]) + (s[11] + s[15]);
    return (l0 + l2) + (l1 + l3);
}

double
dotScalar(const double *a, const double *b, std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            s[j] += a[i + j] * b[i + j];
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return combinePartials(s) + tail;
}

void
axpyScalar(double *a, const double *b, double factor, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += factor * b[i];
}

void
scaleScalar(double *v, double factor, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= factor;
}

void
mulAddScalar(double *out, const double *a, const double *b,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] += a[i] * b[i];
}

// The hot loops below carry __restrict-qualified parameters like the
// pre-SIMD mlp.cpp helpers did: GCC only exploits restrict on function
// parameters, and without it the unit-wide loops get versioned with
// runtime alias checks that cost more than the loop bodies. Top-level
// restrict does not participate in the function type, so these
// definitions still match the KernelTable pointer signatures. The
// operands really are disjoint: weights, activations, deltas and
// momentum buffers live in separate workspace allocations.

void
gemmMicroScalar(std::size_t k, std::size_t n, const double *__restrict a,
                const double *__restrict b, std::size_t ldb,
                double *__restrict c)
{
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = a[kk];
        if (av == 0.0)
            continue;
        const double *__restrict b_row = b + kk * ldb;
        for (std::size_t j = 0; j < n; ++j)
            c[j] += av * b_row[j];
    }
}

double
squaredDistanceScalar(const double *a, const double *b, std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j) {
            const double d = a[i + j] - b[i + j];
            s[j] += d * d;
        }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += d * d;
    }
    return combinePartials(s) + tail;
}

double
manhattanScalar(const double *a, const double *b, std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            s[j] += std::fabs(a[i + j] - b[i + j]);
    double tail = 0.0;
    for (; i < n; ++i)
        tail += std::fabs(a[i] - b[i]);
    return combinePartials(s) + tail;
}

double
weightedSquaredDistanceScalar(const double *a, const double *b,
                              const double *w, std::size_t n)
{
    // Term order (w * d) * d, matching the pre-SIMD loops.
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j) {
            const double d = a[i + j] - b[i + j];
            s[j] += (w[i + j] * d) * d;
        }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += (w[i] * d) * d;
    }
    return combinePartials(s) + tail;
}

double
centeredDotScalar(const double *a, const double *b, double ca, double cb,
                  std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            s[j] += (a[i + j] - ca) * (b[i + j] - cb);
    double tail = 0.0;
    for (; i < n; ++i)
        tail += (a[i] - ca) * (b[i] - cb);
    return combinePartials(s) + tail;
}

// Masked reductions: identical block structure and combine tree, with
// each invalid term zero-substituted. The ternary reads the value only
// when the bit is set, so NaN-poisoned masked cells never reach the
// arithmetic. An all-set mask makes every ternary pick the live term,
// which is literally the dense loop — bit-identity by construction.

inline bool
validBit(const std::uint64_t *valid, std::size_t i)
{
    return ((valid[i >> 6] >> (i & 63)) & 1u) != 0;
}

double
maskedDotScalar(const double *a, const double *b,
                const std::uint64_t *valid, std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            s[j] += validBit(valid, i + j) ? a[i + j] * b[i + j] : 0.0;
    double tail = 0.0;
    for (; i < n; ++i)
        tail += validBit(valid, i) ? a[i] * b[i] : 0.0;
    return combinePartials(s) + tail;
}

double
maskedSumScalar(const double *a, const std::uint64_t *valid,
                std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            s[j] += validBit(valid, i + j) ? a[i + j] : 0.0;
    double tail = 0.0;
    for (; i < n; ++i)
        tail += validBit(valid, i) ? a[i] : 0.0;
    return combinePartials(s) + tail;
}

double
maskedSquaredDistanceScalar(const double *a, const double *b,
                            const std::uint64_t *valid, std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j) {
            if (validBit(valid, i + j)) {
                const double d = a[i + j] - b[i + j];
                s[j] += d * d;
            } else {
                s[j] += 0.0;
            }
        }
    double tail = 0.0;
    for (; i < n; ++i) {
        if (validBit(valid, i)) {
            const double d = a[i] - b[i];
            tail += d * d;
        } else {
            tail += 0.0;
        }
    }
    return combinePartials(s) + tail;
}

double
maskedWeightedSquaredDistanceScalar(const double *a, const double *b,
                                    const double *w,
                                    const std::uint64_t *valid,
                                    std::size_t n)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j) {
            if (validBit(valid, i + j)) {
                const double d = a[i + j] - b[i + j];
                s[j] += (w[i + j] * d) * d;
            } else {
                s[j] += 0.0;
            }
        }
    double tail = 0.0;
    for (; i < n; ++i) {
        if (validBit(valid, i)) {
            const double d = a[i] - b[i];
            tail += (w[i] * d) * d;
        } else {
            tail += 0.0;
        }
    }
    return combinePartials(s) + tail;
}

void
mlpLayerNetsScalar(std::size_t in, std::size_t out,
                   const double *__restrict wt,
                   const double *__restrict bias,
                   const double *__restrict a_in,
                   double *__restrict a_out)
{
    if (out == 1) {
        a_out[0] = bias[0] + dotScalar(wt, a_in, in);
        return;
    }
    for (std::size_t r = 0; r < out; ++r)
        a_out[r] = bias[r];
    for (std::size_t c = 0; c < in; ++c) {
        const double a = a_in[c];
        const double *__restrict wc = wt + c * out;
        for (std::size_t r = 0; r < out; ++r)
            a_out[r] += wc[r] * a;
    }
}

void
mlpLayerDeltasScalar(std::size_t width, std::size_t width_next,
                     const double *__restrict wt_next,
                     const double *__restrict d_next,
                     double *__restrict d)
{
    if (width_next == 1) {
        const double dk = d_next[0];
        for (std::size_t j = 0; j < width; ++j)
            d[j] = wt_next[j] * dk;
        return;
    }
    for (std::size_t j = 0; j < width; ++j)
        d[j] = dotScalar(wt_next + j * width_next, d_next, width_next);
}

void
mlpUpdateLayerScalar(std::size_t in, std::size_t out, double lr,
                     double momentum, const double *__restrict in_act,
                     double *__restrict d, double *__restrict wt,
                     double *__restrict pwt, double *__restrict bias,
                     double *__restrict pb)
{
    scaleScalar(d, lr, out);
    if (out == 1) {
        // Single-unit layer: one weight per input, contiguous in the
        // transposed layout.
        const double d0 = d[0];
        for (std::size_t c = 0; c < in; ++c) {
            const double dw = d0 * in_act[c] + momentum * pwt[c];
            wt[c] += dw;
            pwt[c] = dw;
        }
    } else {
        for (std::size_t c = 0; c < in; ++c) {
            const double a = in_act[c];
            double *__restrict wc = wt + c * out;
            double *__restrict pwc = pwt + c * out;
            for (std::size_t r = 0; r < out; ++r) {
                const double dw = d[r] * a + momentum * pwc[r];
                wc[r] += dw;
                pwc[r] = dw;
            }
        }
    }
    for (std::size_t r = 0; r < out; ++r) {
        const double db = d[r] + momentum * pb[r];
        bias[r] += db;
        pb[r] = db;
    }
}

void
mlpBatchNetsScalar(std::size_t bn, std::size_t in, std::size_t out,
                   const double *__restrict a, std::size_t lda,
                   const double *__restrict wt,
                   const double *__restrict bias, double *__restrict c,
                   std::size_t ldc)
{
    // Row s is exactly mlpLayerNets on sample s, so the batched
    // forward is bit-identical to the per-sample engine's.
    for (std::size_t s = 0; s < bn; ++s)
        mlpLayerNetsScalar(in, out, wt, bias, a + s * lda,
                           c + s * ldc);
}

void
mlpGradAccumScalar(std::size_t bn, std::size_t out, std::size_t in,
                   const double *__restrict d, std::size_t ldd,
                   const double *__restrict a, std::size_t lda,
                   double *__restrict gw)
{
    // Zero-init then sample-ascending rank-1 adds: element (r, c)
    // receives ((0.0 + t_0) + t_1) + ... — the association the vector
    // tiers reproduce with register accumulators.
    for (std::size_t i = 0; i < out * in; ++i)
        gw[i] = 0.0;
    for (std::size_t s = 0; s < bn; ++s) {
        const double *__restrict ds = d + s * ldd;
        const double *__restrict as = a + s * lda;
        for (std::size_t r = 0; r < out; ++r) {
            const double dr = ds[r];
            double *__restrict row = gw + r * in;
            for (std::size_t c = 0; c < in; ++c)
                row[c] += dr * as[c];
        }
    }
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable kTable = {
        "scalar",
        dotScalar,
        axpyScalar,
        scaleScalar,
        mulAddScalar,
        gemmMicroScalar,
        squaredDistanceScalar,
        manhattanScalar,
        weightedSquaredDistanceScalar,
        centeredDotScalar,
        mlpLayerNetsScalar,
        mlpLayerDeltasScalar,
        mlpUpdateLayerScalar,
        mlpBatchNetsScalar,
        mlpGradAccumScalar,
        mlpLaneStepBody<1>,
        maskedDotScalar,
        maskedSumScalar,
        maskedSquaredDistanceScalar,
        maskedWeightedSquaredDistanceScalar,
    };
    return kTable;
}

} // namespace dtrank::simd
