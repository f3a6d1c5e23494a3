/**
 * @file
 * The MLP lane step (KernelTable::mlpLaneStep), written once as a body
 * templated on the lane width W and included by each tier's TU, which
 * instantiates it at its own width: scalar W = 1 (plain doubles),
 * avx2 W = 4, avx512 W = 8 (GCC vector types, lowered to the tier's
 * registers by its -m flags). Every operation below is elementwise
 * across lanes, so the width cannot change a lane's bits; each lane
 * runs the per-sample engine's expressions in its order (the contract
 * in simd.h). Like every TU, the includers build with
 * -ffp-contract=off, so no mul+add pair is fused.
 *
 * Internal linkage throughout: each tier's TU gets its own copy,
 * compiled for its own ISA, and no instantiation can leak across TUs.
 */

#pragma once

#include <cmath>
#include <cstring>

#include "simd/simd.h"

namespace dtrank::simd
{

namespace
{

/**
 * W lanes in one value: a plain double at W = 1, a GCC vector of W
 * doubles otherwise. Spelled out per width because GCC drops a
 * vector_size attribute whose size depends on a template parameter.
 */
template <std::size_t W>
struct LaneVector;

template <>
struct LaneVector<1>
{
    using Type = double;
};

template <>
struct LaneVector<4>
{
    using Type = double __attribute__((vector_size(4 * sizeof(double))));
};

template <>
struct LaneVector<8>
{
    using Type = double __attribute__((vector_size(8 * sizeof(double))));
};

template <std::size_t W>
inline typename LaneVector<W>::Type
loadLanes(const double *p)
{
    typename LaneVector<W>::Type v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

template <typename V>
inline void
storeLanes(double *p, V v)
{
    std::memcpy(p, &v, sizeof(v));
}

/**
 * The canonical-reduction dot of a[i] and b[i] over i < n (16 partials
 * over full blocks, sequential tail, fixed combine tree), W lanes at
 * once: element i of a lane lies at [i * kMlpLanes] from its pointer.
 */
template <std::size_t W>
inline typename LaneVector<W>::Type
laneDot(const double *a, const double *b, std::size_t n)
{
    using V = typename LaneVector<W>::Type;
    constexpr std::size_t kS = kMlpLanes;
    constexpr std::size_t kBlock = 16;
    V part[kBlock] = {};
    V tail = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t j = 0; j < kBlock; ++j)
            part[j] += loadLanes<W>(a + (i + j) * kS) *
                       loadLanes<W>(b + (i + j) * kS);
    for (; i < n; ++i)
        tail += loadLanes<W>(a + i * kS) * loadLanes<W>(b + i * kS);
    const V q0 = (part[0] + part[4]) + (part[8] + part[12]);
    const V q1 = (part[1] + part[5]) + (part[9] + part[13]);
    const V q2 = (part[2] + part[6]) + (part[10] + part[14]);
    const V q3 = (part[3] + part[7]) + (part[11] + part[15]);
    return ((q0 + q2) + (q1 + q3)) + tail;
}

template <std::size_t W>
void
mlpLaneStepBody(const MlpLaneStep &s)
{
    using V = typename LaneVector<W>::Type;
    constexpr std::size_t kS = kMlpLanes;
    static_assert(sizeof(V) == W * sizeof(double), "one lane per double");
    static_assert(kS % W == 0, "lane stride must hold whole vectors");
    const std::size_t in = s.in;
    const std::size_t hidden = s.hidden;

    for (std::size_t l0 = 0; l0 < s.lanes; l0 += W) {
        double *act = s.act + l0;
        double *delta = s.delta + l0;

        // Hidden nets as mlpLayerNets computes them: one unit is bias
        // + canonical dot (its weights are contiguous per lane in the
        // transposed layout), wider layers bias first, then
        // input-ascending adds.
        if (hidden == 1) {
            storeLanes(act, loadLanes<W>(s.b1 + l0) +
                                laneDot<W>(s.w1 + l0, s.x + l0, in));
        } else {
            for (std::size_t r = 0; r < hidden; ++r)
                storeLanes(act + r * kS, loadLanes<W>(s.b1 + r * kS + l0));
            for (std::size_t c = 0; c < in; ++c) {
                const V xc = loadLanes<W>(s.x + c * kS + l0);
                const double *wc = s.w1 + c * hidden * kS + l0;
                for (std::size_t r = 0; r < hidden; ++r)
                    storeLanes(act + r * kS,
                               loadLanes<W>(act + r * kS) +
                                   loadLanes<W>(wc + r * kS) * xc);
            }
        }

        // Sigmoid through one scalar libm exp per live lane and unit.
        const std::size_t live = s.lanes - l0 < W ? s.lanes - l0 : W;
        for (std::size_t r = 0; r < hidden; ++r)
            for (std::size_t l = 0; l < live; ++l) {
                double &a = act[r * kS + l];
                a = 1.0 / (1.0 + std::exp(-a));
            }

        // Output: bias + canonical dot, lane-parallel.
        const V pred =
            loadLanes<W>(s.b2 + l0) + laneDot<W>(s.w2 + l0, act, hidden);

        // Linear output: its derivative is 1.0, so the output delta is
        // the error itself.
        const V err = loadLanes<W>(s.y + l0) - pred;
        storeLanes(s.sse + l0, loadLanes<W>(s.sse + l0) + err * err);

        // Hidden deltas from the pre-update output weights.
        for (std::size_t r = 0; r < hidden; ++r) {
            const V a = loadLanes<W>(act + r * kS);
            storeLanes(delta + r * kS,
                       (loadLanes<W>(s.w2 + r * kS + l0) * err) *
                           (a * (1.0 - a)));
        }

        // Hidden layer update: deltas scaled by lr, then per weight
        // dw = d * x + momentum * prev.
        for (std::size_t r = 0; r < hidden; ++r)
            storeLanes(delta + r * kS, loadLanes<W>(delta + r * kS) * s.lr);
        for (std::size_t c = 0; c < in; ++c) {
            const V xc = loadLanes<W>(s.x + c * kS + l0);
            double *wc = s.w1 + c * hidden * kS + l0;
            double *pwc = s.pw1 + c * hidden * kS + l0;
            for (std::size_t r = 0; r < hidden; ++r) {
                const V dw = loadLanes<W>(delta + r * kS) * xc +
                             s.momentum * loadLanes<W>(pwc + r * kS);
                storeLanes(wc + r * kS, loadLanes<W>(wc + r * kS) + dw);
                storeLanes(pwc + r * kS, dw);
            }
        }
        for (std::size_t r = 0; r < hidden; ++r) {
            const V db = loadLanes<W>(delta + r * kS) +
                         s.momentum * loadLanes<W>(s.pb1 + r * kS + l0);
            storeLanes(s.b1 + r * kS + l0,
                       loadLanes<W>(s.b1 + r * kS + l0) + db);
            storeLanes(s.pb1 + r * kS + l0, db);
        }

        // Output layer update, the same expressions.
        const V d0 = err * s.lr;
        for (std::size_t r = 0; r < hidden; ++r) {
            const V dw = d0 * loadLanes<W>(act + r * kS) +
                         s.momentum * loadLanes<W>(s.pw2 + r * kS + l0);
            storeLanes(s.w2 + r * kS + l0,
                       loadLanes<W>(s.w2 + r * kS + l0) + dw);
            storeLanes(s.pw2 + r * kS + l0, dw);
        }
        const V db = d0 + s.momentum * loadLanes<W>(s.pb2 + l0);
        storeLanes(s.b2 + l0, loadLanes<W>(s.b2 + l0) + db);
        storeLanes(s.pb2 + l0, db);
    }
}

} // namespace

} // namespace dtrank::simd
