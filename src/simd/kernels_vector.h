/**
 * @file
 * Every tier's kernels, written once as a body templated on a
 * per-width traits struct T and included by kernels_scalar.cpp
 * (W = 1), kernels_avx2.cpp (W = 4) and kernels_avx512.cpp (W = 8),
 * which each compile it for their own ISA. One body gives one set of
 * bits at every width (tests/simd/reference_kernels.h writes them out
 * as the tests' oracle):
 *   - every reduction goes through reduce(): the 16 canonical partials
 *     held in 16 / W vectors (partial s[j] in lane j % W of vector
 *     j / W), a sequential scalar tail, then T::fold, the tier's
 *     spelling of the canonical combine tree (simd.h);
 *   - the masked sum crushes each invalid term to +0.0 (T::keep), so
 *     an all-set mask reproduces the dense sum bit for bit and
 *     NaN-poisoned cells never reach it;
 *   - the elementwise sweeps and MLP layer kernels never sum across
 *     elements, so any width gives the same bits.
 *
 * The traits struct provides:
 *   V                   LaneVector<W>::Type (a double at W = 1);
 *   fold(part)          the canonical combine of part[0 .. 16 / W);
 *   Mask, mask(live)    a mask of the first `live` lanes, live <= W;
 *   maskLoad(p, m)      the masked lanes at p, others 0.0;
 *   maskStore(p, m, v)  stores the masked lanes of v at p;
 *   keep(bits, v)       v with lane l zeroed unless bit l is set.
 *
 * No FMA outside exp (exp.h), as everywhere in this layer: every TU
 * builds with -ffp-contract=off (top-level CMakeLists.txt), so each
 * mul+add keeps its two roundings. Internal linkage throughout, like
 * mlp_lane_step.h.
 */

#pragma once

#include <cstdint>

#include "simd/exp.h"
#include "simd/lane_vector.h"
#include "simd/mlp_lane_step.h"
#include "simd/simd.h"

namespace dtrank::simd
{

namespace
{

template <typename T>
struct VectorKernels
{
    using V = typename T::V;
    using Mask = typename T::Mask;
    static constexpr std::size_t W = sizeof(V) / sizeof(double);
    static constexpr std::size_t kBlock = 16;
    static_assert(kBlock % W == 0, "a block must hold whole vectors");

    /** Whole-vector access for full unit and column blocks. */
    struct Full
    {
        V load(const double *p) const { return loadLanes<W>(p); }
        void store(double *p, V v) const { storeLanes(p, v); }
    };

    /** Masked access for the last, partial block. */
    struct Part
    {
        Mask m;
        V load(const double *p) const { return T::maskLoad(p, m); }
        void store(double *p, V v) const { T::maskStore(p, m, v); }
    };

    static V
    load(const double *p)
    {
        return loadLanes<W>(p);
    }

    /**
     * The canonical reduction of n terms: vectorTerm(i) gives terms
     * [i, i + W) of a full block, scalarTerm(i) term i of the tail.
     * The loop counts whole blocks so it compiles to the same
     * pointer-bumped loop as hand-written intrinsics.
     */
    template <typename VectorTerm, typename ScalarTerm>
    static double
    reduce(std::size_t n, VectorTerm vectorTerm, ScalarTerm scalarTerm)
    {
        V part[kBlock / W] = {};
        const std::size_t blocks = n / kBlock;
        for (std::size_t blk = 0; blk < blocks; ++blk)
            for (std::size_t j = 0; j < kBlock / W; ++j)
                part[j] += vectorTerm(blk * kBlock + j * W);
        double tail = 0.0;
        for (std::size_t i = blocks * kBlock; i < n; ++i)
            tail += scalarTerm(i);
        return T::fold(part) + tail;
    }

    static double
    dot(const double *a, const double *b, std::size_t n)
    {
        return reduce(
            n, [=](std::size_t i) { return load(a + i) * load(b + i); },
            [=](std::size_t i) { return a[i] * b[i]; });
    }

    static double
    squaredDistance(const double *a, const double *b, std::size_t n)
    {
        return reduce(
            n,
            [=](std::size_t i) {
                const V d = load(a + i) - load(b + i);
                return d * d;
            },
            [=](std::size_t i) {
                const double d = a[i] - b[i];
                return d * d;
            });
    }

    static double
    weightedSquaredDistance(const double *a, const double *b,
                            const double *w, std::size_t n)
    {
        // (w * d) * d, the association of the pre-SIMD loops.
        return reduce(
            n,
            [=](std::size_t i) {
                const V d = load(a + i) - load(b + i);
                return (load(w + i) * d) * d;
            },
            [=](std::size_t i) {
                const double d = a[i] - b[i];
                return (w[i] * d) * d;
            });
    }

    static double
    centeredDot(const double *a, const double *b, double ca, double cb,
                std::size_t n)
    {
        return reduce(
            n,
            [=](std::size_t i) {
                return (load(a + i) - ca) * (load(b + i) - cb);
            },
            [=](std::size_t i) { return (a[i] - ca) * (b[i] - cb); });
    }

    /** Bits i .. i + W of the packed mask; W divides 64 and i % W == 0. */
    static std::uint64_t
    laneBits(const std::uint64_t *valid, std::size_t i)
    {
        return (valid[i >> 6] >> (i & 63)) & ((std::uint64_t{1} << W) - 1);
    }

    static bool
    validBit(const std::uint64_t *valid, std::size_t i)
    {
        return ((valid[i >> 6] >> (i & 63)) & 1u) != 0;
    }

    static double
    maskedSum(const double *a, const std::uint64_t *valid, std::size_t n)
    {
        return reduce(
            n,
            [=](std::size_t i) {
                return T::keep(laneBits(valid, i), load(a + i));
            },
            [=](std::size_t i) { return validBit(valid, i) ? a[i] : 0.0; });
    }

    static void
    axpy(double *a, const double *b, double factor, std::size_t n)
    {
        std::size_t i = 0;
        for (; i + W <= n; i += W)
            storeLanes(a + i, load(a + i) + factor * load(b + i));
        for (; i < n; ++i)
            a[i] += factor * b[i];
    }

    static void
    scale(double *v, double factor, std::size_t n)
    {
        std::size_t i = 0;
        for (; i + W <= n; i += W)
            storeLanes(v + i, load(v + i) * factor);
        for (; i < n; ++i)
            v[i] *= factor;
    }

    static void
    gemmMicro(std::size_t k, std::size_t n, const double *a,
              const double *b, std::size_t ldb, double *c)
    {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double av = a[kk];
            if (av == 0.0)
                continue;
            const double *b_row = b + kk * ldb;
            // Two vectors per step: two independent accumulate chains.
            // Both rows of b are read before c is written, since c may
            // alias b as far as the compiler knows.
            std::size_t j = 0;
            for (; j + 2 * W <= n; j += 2 * W) {
                const V p0 = av * load(b_row + j);
                const V p1 = av * load(b_row + j + W);
                storeLanes(c + j, load(c + j) + p0);
                storeLanes(c + j + W, load(c + j + W) + p1);
            }
            axpy(c + j, b_row + j, av, n - j);
        }
    }

    static void
    mlpLayerNets(std::size_t in, std::size_t out, const double *wt,
                 const double *bias, const double *a_in, double *a_out)
    {
        if (out == 1) {
            a_out[0] = bias[0] + dot(wt, a_in, in);
            return;
        }
        for (std::size_t r = 0; r < out; ++r)
            a_out[r] = bias[r];
        for (std::size_t c = 0; c < in; ++c)
            axpy(a_out, wt + c * out, a_in[c], out);
    }

    static void
    mlpLayerDeltas(std::size_t width, std::size_t width_next,
                   const double *wt_next, const double *d_next, double *d)
    {
        if (width_next == 1) {
            const double dk = d_next[0];
            std::size_t j = 0;
            for (; j + W <= width; j += W)
                storeLanes(d + j, load(wt_next + j) * dk);
            for (; j < width; ++j)
                d[j] = wt_next[j] * dk;
            return;
        }
        for (std::size_t j = 0; j < width; ++j)
            d[j] = dot(wt_next + j * width_next, d_next, width_next);
    }

    /**
     * The momentum update of n weights: dw = x[i] * y + momentum *
     * p[i], added to w[i] and stored as the new p[i]. The operands are
     * disjoint (deltas or activations, weights and previous updates
     * live in separate allocations); without __restrict, which GCC
     * exploits only on parameters, the loop is versioned with runtime
     * alias checks that cost more than its body.
     */
    static void
    momentumSweep(std::size_t n, const double *__restrict x, double y,
                  double momentum, double *__restrict w,
                  double *__restrict p)
    {
        std::size_t i = 0;
        for (; i + W <= n; i += W) {
            const V dw = load(x + i) * y + momentum * load(p + i);
            storeLanes(w + i, load(w + i) + dw);
            storeLanes(p + i, dw);
        }
        for (; i < n; ++i) {
            const double dw = x[i] * y + momentum * p[i];
            w[i] += dw;
            p[i] = dw;
        }
    }

    static void
    mlpUpdateLayer(std::size_t in, std::size_t out, double lr,
                   double momentum, const double *in_act, double *d,
                   double *wt, double *pwt, double *bias, double *pb)
    {
        scale(d, lr, out);
        if (out == 1) {
            // One unit: sweep its contiguous weight column; d[0] *
            // in_act[c] is in_act[c] * d[0], as multiplication commutes.
            momentumSweep(in, in_act, d[0], momentum, wt, pwt);
        } else {
            for (std::size_t c = 0; c < in; ++c)
                momentumSweep(out, d, in_act[c], momentum, wt + c * out,
                              pwt + c * out);
        }
        for (std::size_t r = 0; r < out; ++r) {
            const double db = d[r] + momentum * pb[r];
            bias[r] += db;
            pb[r] = db;
        }
    }

    /**
     * Rows [0, R) of one unit block of the minibatch forward:
     * c[t * ldc] = bias + sum over k of a[t * lda + k] * wt[k * out],
     * bias first, then input-ascending adds. The R samples' chains are
     * independent, so one weight load feeds R of them and they run at
     * FP throughput instead of add latency.
     */
    template <std::size_t R, typename Access>
    static void
    netsTile(Access io, std::size_t in, std::size_t out, const double *a,
             std::size_t lda, const double *wt, const double *bias,
             double *c, std::size_t ldc)
    {
        V x[R];
        for (std::size_t t = 0; t < R; ++t)
            x[t] = io.load(bias);
        for (std::size_t k = 0; k < in; ++k) {
            const V w = io.load(wt + k * out);
            for (std::size_t t = 0; t < R; ++t)
                x[t] += a[t * lda + k] * w;
        }
        for (std::size_t t = 0; t < R; ++t)
            io.store(c + t * ldc, x[t]);
    }

    /**
     * Calls f(io, j) for every W-lane block [j, j + W) of [0, n): whole
     * blocks with plain access, the last, partial one masked.
     */
    template <typename F>
    static void
    forBlocks(std::size_t n, F f)
    {
        std::size_t j = 0;
        for (; j + W <= n; j += W)
            f(Full{}, j);
        if (j < n)
            f(Part{T::mask(n - j)}, j);
    }

    static void
    mlpBatchNets(std::size_t bn, std::size_t in, std::size_t out,
                 const double *a, std::size_t lda, const double *wt,
                 const double *bias, double *c, std::size_t ldc)
    {
        if (out == 1) {
            // Single-unit layer with a contiguous weight column: one
            // canonical dot per sample, like the per-sample engine.
            for (std::size_t s = 0; s < bn; ++s)
                c[s * ldc] = bias[0] + dot(wt, a + s * lda, in);
            return;
        }
        std::size_t s = 0;
        for (; s + 4 <= bn; s += 4)
            forBlocks(out, [&](auto io, std::size_t r) {
                netsTile<4>(io, in, out, a + s * lda, lda, wt + r, bias + r,
                            c + s * ldc + r, ldc);
            });
        for (; s < bn; ++s)
            forBlocks(out, [&](auto io, std::size_t r) {
                netsTile<1>(io, in, out, a + s * lda, lda, wt + r, bias + r,
                            c + s * ldc + r, ldc);
            });
    }

    /**
     * Rows [0, R) of one column block of the batched gradient:
     * gw[t * in] = sum over s of d[s * ldd + t] * a[s * lda], from
     * 0.0 in ascending s. One activation load feeds R accumulator
     * chains, which stay in registers across the whole sample loop.
     */
    template <std::size_t R, typename Access>
    static void
    gradTile(Access io, std::size_t bn, std::size_t in, const double *d,
             std::size_t ldd, const double *a, std::size_t lda, double *gw)
    {
        V acc[R];
        for (std::size_t t = 0; t < R; ++t)
            acc[t] = V{};
        for (std::size_t s = 0; s < bn; ++s) {
            const V av = io.load(a + s * lda);
            for (std::size_t t = 0; t < R; ++t)
                acc[t] += d[s * ldd + t] * av;
        }
        for (std::size_t t = 0; t < R; ++t)
            io.store(gw + t * in, acc[t]);
    }

    /**
     * Every row of one column block of the batched gradient. Kept out
     * of line: inlined into forBlocks' two instantiations, GCC 12
     * spills the sample loop's counter and strides to the stack.
     */
    template <typename Access>
    [[gnu::noinline]] static void
    gradPanel(Access io, std::size_t bn, std::size_t out, std::size_t in,
              const double *d, std::size_t ldd, const double *a,
              std::size_t lda, double *gw)
    {
        std::size_t r = 0;
        for (; r + 4 <= out; r += 4)
            gradTile<4>(io, bn, in, d + r, ldd, a, lda, gw + r * in);
        for (; r < out; ++r)
            gradTile<1>(io, bn, in, d + r, ldd, a, lda, gw + r * in);
    }

    static void
    mlpGradAccum(std::size_t bn, std::size_t out, std::size_t in,
                 const double *d, std::size_t ldd, const double *a,
                 std::size_t lda, double *gw)
    {
        forBlocks(in, [&](auto io, std::size_t c) {
            gradPanel(io, bn, out, in, d, ldd, a + c, lda, gw + c);
        });
    }

    static void
    exp(std::size_t n, double *a)
    {
        forBlocks(n, [&](auto io, std::size_t j) {
            io.store(a + j, expLanes<W>(io.load(a + j), n - j));
        });
    }

    static void
    sigmoid(std::size_t n, double *a)
    {
        forBlocks(n, [&](auto io, std::size_t j) {
            io.store(a + j, sigmoidLanes<W>(io.load(a + j), n - j));
        });
    }
};

/** The kernel table of the vector tier with traits T. */
template <typename T>
constexpr KernelTable
vectorKernelTable(const char *name)
{
    using K = VectorKernels<T>;
    return {
        name,
        K::dot,
        K::axpy,
        K::gemmMicro,
        K::squaredDistance,
        K::weightedSquaredDistance,
        K::centeredDot,
        K::mlpLayerNets,
        K::mlpLayerDeltas,
        K::mlpUpdateLayer,
        K::mlpBatchNets,
        K::mlpGradAccum,
        mlpLaneStepBody<K::W>,
        K::exp,
        K::sigmoid,
        K::maskedSum,
    };
}

} // namespace

} // namespace dtrank::simd
