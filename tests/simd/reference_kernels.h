/**
 * @file
 * The kernel tests' oracle: the canonical lane-blocked reduction
 * (simd.h) and the per-sample MLP layer loops written out in plain
 * C++, one loop per kernel and no vectors. Every tier, the scalar one
 * included, is one templated body (src/simd/kernels_vector.h) and is
 * tested against these loops bit for bit; they are the scalar tier's
 * hand-written kernels from before that body served it too, so they
 * carry the bits the golden values were pinned with.
 *
 * Test-only: nothing in src/ includes this file, and it includes
 * nothing from src/, so no tier's code can leak into the oracle.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace dtrank::simd::reference
{

/** Terms per canonical block: 4 lanes x 4-way unroll. */
inline constexpr std::size_t kBlock = 16;

/**
 * The canonical reduction of term(0) .. term(n - 1): term i of a full
 * block into partial s[i % 16], the fixed combine tree over the
 * partials, then the sequential tail added last.
 */
template <typename Term>
double
canonicalSum(std::size_t n, Term term)
{
    double s[kBlock] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            s[j] += term(i + j);
    double tail = 0.0;
    for (; i < n; ++i)
        tail += term(i);
    const double l0 = (s[0] + s[4]) + (s[8] + s[12]);
    const double l1 = (s[1] + s[5]) + (s[9] + s[13]);
    const double l2 = (s[2] + s[6]) + (s[10] + s[14]);
    const double l3 = (s[3] + s[7]) + (s[11] + s[15]);
    return ((l0 + l2) + (l1 + l3)) + tail;
}

inline double
dot(const double *a, const double *b, std::size_t n)
{
    return canonicalSum(n, [=](std::size_t i) { return a[i] * b[i]; });
}

inline double
squaredDistance(const double *a, const double *b, std::size_t n)
{
    return canonicalSum(n, [=](std::size_t i) {
        const double d = a[i] - b[i];
        return d * d;
    });
}

inline double
weightedSquaredDistance(const double *a, const double *b, const double *w,
                        std::size_t n)
{
    return canonicalSum(n, [=](std::size_t i) {
        const double d = a[i] - b[i];
        return (w[i] * d) * d;
    });
}

inline double
centeredDot(const double *a, const double *b, double ca, double cb,
            std::size_t n)
{
    return canonicalSum(
        n, [=](std::size_t i) { return (a[i] - ca) * (b[i] - cb); });
}

inline bool
validBit(const std::uint64_t *valid, std::size_t i)
{
    return ((valid[i >> 6] >> (i & 63)) & 1u) != 0;
}

// The masked sum adds a literal +0.0 for each invalid term and never
// reads its operand.

inline double
maskedSum(const double *a, const std::uint64_t *valid, std::size_t n)
{
    return canonicalSum(n, [=](std::size_t i) {
        return validBit(valid, i) ? a[i] : 0.0;
    });
}

inline void
axpy(double *a, const double *b, double factor, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += factor * b[i];
}

inline void
scale(double *v, double factor, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= factor;
}

inline void
gemmMicro(std::size_t k, std::size_t n, const double *a, const double *b,
          std::size_t ldb, double *c)
{
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = a[kk];
        if (av == 0.0)
            continue;
        const double *b_row = b + kk * ldb;
        for (std::size_t j = 0; j < n; ++j)
            c[j] += av * b_row[j];
    }
}

inline void
mlpLayerNets(std::size_t in, std::size_t out, const double *wt,
             const double *bias, const double *a_in, double *a_out)
{
    if (out == 1) {
        a_out[0] = bias[0] + dot(wt, a_in, in);
        return;
    }
    for (std::size_t r = 0; r < out; ++r)
        a_out[r] = bias[r];
    for (std::size_t c = 0; c < in; ++c) {
        const double a = a_in[c];
        const double *wc = wt + c * out;
        for (std::size_t r = 0; r < out; ++r)
            a_out[r] += wc[r] * a;
    }
}

inline void
mlpLayerDeltas(std::size_t width, std::size_t width_next,
               const double *wt_next, const double *d_next, double *d)
{
    if (width_next == 1) {
        const double dk = d_next[0];
        for (std::size_t j = 0; j < width; ++j)
            d[j] = wt_next[j] * dk;
        return;
    }
    for (std::size_t j = 0; j < width; ++j)
        d[j] = dot(wt_next + j * width_next, d_next, width_next);
}

inline void
mlpUpdateLayer(std::size_t in, std::size_t out, double lr, double momentum,
               const double *in_act, double *d, double *wt, double *pwt,
               double *bias, double *pb)
{
    scale(d, lr, out);
    for (std::size_t c = 0; c < in; ++c) {
        const double a = in_act[c];
        for (std::size_t r = 0; r < out; ++r) {
            const double dw = d[r] * a + momentum * pwt[c * out + r];
            wt[c * out + r] += dw;
            pwt[c * out + r] = dw;
        }
    }
    for (std::size_t r = 0; r < out; ++r) {
        const double db = d[r] + momentum * pb[r];
        bias[r] += db;
        pb[r] = db;
    }
}

} // namespace dtrank::simd::reference
