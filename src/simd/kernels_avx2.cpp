/**
 * @file
 * The AVX2 tier: 256-bit implementations of the kernel table that land
 * on exactly the same bits as the scalar tier (kernels_scalar.cpp is
 * the specification). Reductions keep four vector accumulators — the
 * 16 canonical partials — and fold them with the fixed vector/128-bit
 * tree the scalar tier spells out; elementwise kernels are free to
 * pick any lane width because nothing sums across elements.
 *
 * No FMA: _mm256_fmadd_pd rounds once where the contract demands the
 * two roundings of mul+add. The file is compiled with -mavx2 and
 * -ffp-contract=off (src/simd/CMakeLists.txt) so the compiler cannot
 * re-fuse what we deliberately keep separate.
 *
 * On targets where the build system cannot enable AVX2 this file
 * compiles to a stub avx2Kernels() returning null and the dispatcher
 * never offers the tier.
 */

#include "simd/simd.h"

#if defined(__AVX2__)

// dtrank-lint-ignore(no-raw-intrinsics): this is the one directory
// where raw intrinsics are allowed; the include still trips the
// substring scan, so the suppression is spelled out for readers.
#include <immintrin.h>

#include <cmath>

#include "simd/mlp_lane_step.h"

namespace dtrank::simd
{

namespace
{

constexpr std::size_t kBlock = 16; // 4 lanes x 4 vector accumulators

/**
 * The canonical fold: lane-wise (v0 + v1) + (v2 + v3), then the
 * low/high 128-bit split-and-add, then element0 + element1 — exactly
 * combinePartials() of the scalar tier.
 */
inline double
foldAccumulators(__m256d v0, __m256d v1, __m256d v2, __m256d v3)
{
    const __m256d v01 = _mm256_add_pd(v0, v1);
    const __m256d v23 = _mm256_add_pd(v2, v3);
    const __m256d v = _mm256_add_pd(v01, v23);
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

double
dotAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        v0 = _mm256_add_pd(v0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                             _mm256_loadu_pd(b + i)));
        v1 = _mm256_add_pd(v1,
                           _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
        v2 = _mm256_add_pd(v2,
                           _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8)));
        v3 = _mm256_add_pd(v3,
                           _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12)));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

void
axpyAvx2(double *a, const double *b, double factor, std::size_t n)
{
    const __m256d f = _mm256_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d bv = _mm256_loadu_pd(b + i);
        const __m256d av = _mm256_loadu_pd(a + i);
        _mm256_storeu_pd(a + i,
                         _mm256_add_pd(av, _mm256_mul_pd(f, bv)));
    }
    for (; i < n; ++i)
        a[i] += factor * b[i];
}

void
scaleAvx2(double *v, double factor, std::size_t n)
{
    const __m256d f = _mm256_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(v + i,
                         _mm256_mul_pd(_mm256_loadu_pd(v + i), f));
    for (; i < n; ++i)
        v[i] *= factor;
}

void
mulAddAvx2(double *out, const double *a, const double *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                           _mm256_loadu_pd(b + i));
        _mm256_storeu_pd(
            out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), prod));
    }
    for (; i < n; ++i)
        out[i] += a[i] * b[i];
}

void
gemmMicroAvx2(std::size_t k, std::size_t n, const double *a,
              const double *b, std::size_t ldb, double *c)
{
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = a[kk];
        if (av == 0.0)
            continue;
        const double *b_row = b + kk * ldb;
        const __m256d avv = _mm256_set1_pd(av);
        std::size_t j = 0;
        // 8 lanes per step: two independent 256-bit accumulate chains.
        for (; j + 8 <= n; j += 8) {
            const __m256d p0 =
                _mm256_mul_pd(avv, _mm256_loadu_pd(b_row + j));
            const __m256d p1 =
                _mm256_mul_pd(avv, _mm256_loadu_pd(b_row + j + 4));
            _mm256_storeu_pd(
                c + j, _mm256_add_pd(_mm256_loadu_pd(c + j), p0));
            _mm256_storeu_pd(
                c + j + 4,
                _mm256_add_pd(_mm256_loadu_pd(c + j + 4), p1));
        }
        for (; j + 4 <= n; j += 4) {
            const __m256d p =
                _mm256_mul_pd(avv, _mm256_loadu_pd(b_row + j));
            _mm256_storeu_pd(
                c + j, _mm256_add_pd(_mm256_loadu_pd(c + j), p));
        }
        for (; j < n; ++j)
            c[j] += av * b_row[j];
    }
}

double
squaredDistanceAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8));
        const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12));
        v0 = _mm256_add_pd(v0, _mm256_mul_pd(d0, d0));
        v1 = _mm256_add_pd(v1, _mm256_mul_pd(d1, d1));
        v2 = _mm256_add_pd(v2, _mm256_mul_pd(d2, d2));
        v3 = _mm256_add_pd(v3, _mm256_mul_pd(d3, d3));
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += d * d;
    }
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

double
manhattanAvx2(const double *a, const double *b, std::size_t n)
{
    // Clear the sign bit for |x|: and with ~(1 << 63) per lane.
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8));
        const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12));
        v0 = _mm256_add_pd(v0, _mm256_and_pd(d0, abs_mask));
        v1 = _mm256_add_pd(v1, _mm256_and_pd(d1, abs_mask));
        v2 = _mm256_add_pd(v2, _mm256_and_pd(d2, abs_mask));
        v3 = _mm256_add_pd(v3, _mm256_and_pd(d3, abs_mask));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += std::fabs(a[i] - b[i]);
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

double
weightedSquaredDistanceAvx2(const double *a, const double *b,
                            const double *w, std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8));
        const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12));
        // (w * d) * d — same association as the scalar tier.
        const __m256d wd0 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i), d0);
        const __m256d wd1 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i + 4), d1);
        const __m256d wd2 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i + 8), d2);
        const __m256d wd3 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i + 12), d3);
        v0 = _mm256_add_pd(v0, _mm256_mul_pd(wd0, d0));
        v1 = _mm256_add_pd(v1, _mm256_mul_pd(wd1, d1));
        v2 = _mm256_add_pd(v2, _mm256_mul_pd(wd2, d2));
        v3 = _mm256_add_pd(v3, _mm256_mul_pd(wd3, d3));
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        tail += (w[i] * d) * d;
    }
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

double
centeredDotAvx2(const double *a, const double *b, double ca, double cb,
                std::size_t n)
{
    const __m256d cav = _mm256_set1_pd(ca);
    const __m256d cbv = _mm256_set1_pd(cb);
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d a0 =
            _mm256_sub_pd(_mm256_loadu_pd(a + i), cav);
        const __m256d a1 =
            _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), cav);
        const __m256d a2 =
            _mm256_sub_pd(_mm256_loadu_pd(a + i + 8), cav);
        const __m256d a3 =
            _mm256_sub_pd(_mm256_loadu_pd(a + i + 12), cav);
        const __m256d b0 =
            _mm256_sub_pd(_mm256_loadu_pd(b + i), cbv);
        const __m256d b1 =
            _mm256_sub_pd(_mm256_loadu_pd(b + i + 4), cbv);
        const __m256d b2 =
            _mm256_sub_pd(_mm256_loadu_pd(b + i + 8), cbv);
        const __m256d b3 =
            _mm256_sub_pd(_mm256_loadu_pd(b + i + 12), cbv);
        v0 = _mm256_add_pd(v0, _mm256_mul_pd(a0, b0));
        v1 = _mm256_add_pd(v1, _mm256_mul_pd(a1, b1));
        v2 = _mm256_add_pd(v2, _mm256_mul_pd(a2, b2));
        v3 = _mm256_add_pd(v3, _mm256_mul_pd(a3, b3));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += (a[i] - ca) * (b[i] - cb);
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

void
mlpLayerNetsAvx2(std::size_t in, std::size_t out, const double *wt,
                 const double *bias, const double *a_in, double *a_out)
{
    if (out == 1) {
        a_out[0] = bias[0] + dotAvx2(wt, a_in, in);
        return;
    }
    for (std::size_t r = 0; r < out; ++r)
        a_out[r] = bias[r];
    // Unit-ascending accumulation per input: elementwise across units,
    // so the 4-lane sweep produces the scalar tier's bits.
    for (std::size_t c = 0; c < in; ++c)
        axpyAvx2(a_out, wt + c * out, a_in[c], out);
}

void
mlpLayerDeltasAvx2(std::size_t width, std::size_t width_next,
                   const double *wt_next, const double *d_next,
                   double *d)
{
    if (width_next == 1) {
        const double dk = d_next[0];
        const __m256d dkv = _mm256_set1_pd(dk);
        std::size_t j = 0;
        for (; j + 4 <= width; j += 4)
            _mm256_storeu_pd(
                d + j,
                _mm256_mul_pd(_mm256_loadu_pd(wt_next + j), dkv));
        for (; j < width; ++j)
            d[j] = wt_next[j] * dk;
        return;
    }
    for (std::size_t j = 0; j < width; ++j)
        d[j] = dotAvx2(wt_next + j * width_next, d_next, width_next);
}

void
mlpUpdateLayerAvx2(std::size_t in, std::size_t out, double lr,
                   double momentum, const double *in_act, double *d,
                   double *wt, double *pwt, double *bias, double *pb)
{
    scaleAvx2(d, lr, out);
    const __m256d mom = _mm256_set1_pd(momentum);
    if (out == 1) {
        const __m256d d0v = _mm256_set1_pd(d[0]);
        const double d0 = d[0];
        std::size_t c = 0;
        for (; c + 4 <= in; c += 4) {
            const __m256d dw = _mm256_add_pd(
                _mm256_mul_pd(d0v, _mm256_loadu_pd(in_act + c)),
                _mm256_mul_pd(mom, _mm256_loadu_pd(pwt + c)));
            _mm256_storeu_pd(
                wt + c, _mm256_add_pd(_mm256_loadu_pd(wt + c), dw));
            _mm256_storeu_pd(pwt + c, dw);
        }
        for (; c < in; ++c) {
            const double dw = d0 * in_act[c] + momentum * pwt[c];
            wt[c] += dw;
            pwt[c] = dw;
        }
    } else {
        for (std::size_t c = 0; c < in; ++c) {
            const double a = in_act[c];
            const __m256d av = _mm256_set1_pd(a);
            double *wc = wt + c * out;
            double *pwc = pwt + c * out;
            std::size_t r = 0;
            for (; r + 4 <= out; r += 4) {
                const __m256d dw = _mm256_add_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(d + r), av),
                    _mm256_mul_pd(mom, _mm256_loadu_pd(pwc + r)));
                _mm256_storeu_pd(
                    wc + r,
                    _mm256_add_pd(_mm256_loadu_pd(wc + r), dw));
                _mm256_storeu_pd(pwc + r, dw);
            }
            for (; r < out; ++r) {
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

/** Lane mask for the first `live` of 4 lanes (maskload semantics). */
inline __m256i
laneMask4(std::size_t live)
{
    const long long kAll = -1;
    return _mm256_setr_epi64x(live > 0 ? kAll : 0, live > 1 ? kAll : 0,
                              live > 2 ? kAll : 0, live > 3 ? kAll : 0);
}

void
mlpBatchNetsAvx2(std::size_t bn, std::size_t in, std::size_t out,
                 const double *a, std::size_t lda, const double *wt,
                 const double *bias, double *c, std::size_t ldc)
{
    if (out == 1) {
        // Single-unit layer with a contiguous weight column: one
        // canonical dot per sample, like the per-sample engine.
        for (std::size_t s = 0; s < bn; ++s)
            c[s * ldc] = bias[0] + dotAvx2(wt, a + s * lda, in);
        return;
    }
    // Per sample: bias init, then input-ascending rank-1 adds with a
    // register accumulator per unit block — element (s, r) sees the
    // exact add sequence of the scalar mlpLayerNets loop. Samples are
    // tiled in fours so one weight-row load feeds four independent
    // accumulator chains; a lone chain is in * add-latency cycles of
    // exposed latency, four of them run at FP throughput instead.
    std::size_t s = 0;
    for (; s + 4 <= bn; s += 4) {
        const double *a0 = a + s * lda;
        const double *a1 = a0 + lda;
        const double *a2 = a1 + lda;
        const double *a3 = a2 + lda;
        double *c0 = c + s * ldc;
        double *c1 = c0 + ldc;
        double *c2 = c1 + ldc;
        double *c3 = c2 + ldc;
        std::size_t r = 0;
        for (; r + 4 <= out; r += 4) {
            const __m256d b0 = _mm256_loadu_pd(bias + r);
            __m256d x0 = b0, x1 = b0, x2 = b0, x3 = b0;
            for (std::size_t k = 0; k < in; ++k) {
                const __m256d w = _mm256_loadu_pd(wt + k * out + r);
                x0 = _mm256_add_pd(
                    x0, _mm256_mul_pd(_mm256_set1_pd(a0[k]), w));
                x1 = _mm256_add_pd(
                    x1, _mm256_mul_pd(_mm256_set1_pd(a1[k]), w));
                x2 = _mm256_add_pd(
                    x2, _mm256_mul_pd(_mm256_set1_pd(a2[k]), w));
                x3 = _mm256_add_pd(
                    x3, _mm256_mul_pd(_mm256_set1_pd(a3[k]), w));
            }
            _mm256_storeu_pd(c0 + r, x0);
            _mm256_storeu_pd(c1 + r, x1);
            _mm256_storeu_pd(c2 + r, x2);
            _mm256_storeu_pd(c3 + r, x3);
        }
        if (r < out) {
            const __m256i mask = laneMask4(out - r);
            const __m256d b0 = _mm256_maskload_pd(bias + r, mask);
            __m256d x0 = b0, x1 = b0, x2 = b0, x3 = b0;
            for (std::size_t k = 0; k < in; ++k) {
                const __m256d w =
                    _mm256_maskload_pd(wt + k * out + r, mask);
                x0 = _mm256_add_pd(
                    x0, _mm256_mul_pd(_mm256_set1_pd(a0[k]), w));
                x1 = _mm256_add_pd(
                    x1, _mm256_mul_pd(_mm256_set1_pd(a1[k]), w));
                x2 = _mm256_add_pd(
                    x2, _mm256_mul_pd(_mm256_set1_pd(a2[k]), w));
                x3 = _mm256_add_pd(
                    x3, _mm256_mul_pd(_mm256_set1_pd(a3[k]), w));
            }
            _mm256_maskstore_pd(c0 + r, mask, x0);
            _mm256_maskstore_pd(c1 + r, mask, x1);
            _mm256_maskstore_pd(c2 + r, mask, x2);
            _mm256_maskstore_pd(c3 + r, mask, x3);
        }
    }
    for (; s < bn; ++s) {
        const double *as = a + s * lda;
        double *cs = c + s * ldc;
        std::size_t r = 0;
        for (; r + 4 <= out; r += 4) {
            __m256d acc = _mm256_loadu_pd(bias + r);
            for (std::size_t k = 0; k < in; ++k)
                acc = _mm256_add_pd(
                    acc,
                    _mm256_mul_pd(_mm256_set1_pd(as[k]),
                                  _mm256_loadu_pd(wt + k * out + r)));
            _mm256_storeu_pd(cs + r, acc);
        }
        if (r < out) {
            const __m256i mask = laneMask4(out - r);
            __m256d acc = _mm256_maskload_pd(bias + r, mask);
            for (std::size_t k = 0; k < in; ++k)
                acc = _mm256_add_pd(
                    acc, _mm256_mul_pd(
                             _mm256_set1_pd(as[k]),
                             _mm256_maskload_pd(wt + k * out + r,
                                                mask)));
            _mm256_maskstore_pd(cs + r, mask, acc);
        }
    }
}


/**
 * One column block of the batched gradient, all rows. Rows are tiled
 * in fours so one activation load feeds four accumulator chains —
 * without the tiling the s-loop is one long add-latency chain per
 * (row, block) and the loads outnumber the arithmetic.
 */
inline void
gradAccumPanelAvx2(std::size_t bn, std::size_t out, std::size_t in,
                   const double *d, std::size_t ldd, const double *a,
                   std::size_t lda, double *gw, std::size_t c,
                   std::size_t live)
{
    const __m256i mask = laneMask4(live);
    std::size_t r = 0;
    for (; r + 4 <= out; r += 4) {
        __m256d acc0 = _mm256_setzero_pd(), acc1 = acc0, acc2 = acc0,
                acc3 = acc0;
        for (std::size_t s = 0; s < bn; ++s) {
            const __m256d av =
                _mm256_maskload_pd(a + s * lda + c, mask);
            const double *ds = d + s * ldd + r;
            acc0 = _mm256_add_pd(
                acc0, _mm256_mul_pd(_mm256_set1_pd(ds[0]), av));
            acc1 = _mm256_add_pd(
                acc1, _mm256_mul_pd(_mm256_set1_pd(ds[1]), av));
            acc2 = _mm256_add_pd(
                acc2, _mm256_mul_pd(_mm256_set1_pd(ds[2]), av));
            acc3 = _mm256_add_pd(
                acc3, _mm256_mul_pd(_mm256_set1_pd(ds[3]), av));
        }
        _mm256_maskstore_pd(gw + (r + 0) * in + c, mask, acc0);
        _mm256_maskstore_pd(gw + (r + 1) * in + c, mask, acc1);
        _mm256_maskstore_pd(gw + (r + 2) * in + c, mask, acc2);
        _mm256_maskstore_pd(gw + (r + 3) * in + c, mask, acc3);
    }
    for (; r < out; ++r) {
        __m256d acc = _mm256_setzero_pd();
        for (std::size_t s = 0; s < bn; ++s)
            acc = _mm256_add_pd(
                acc, _mm256_mul_pd(
                         _mm256_set1_pd(d[s * ldd + r]),
                         _mm256_maskload_pd(a + s * lda + c, mask)));
        _mm256_maskstore_pd(gw + r * in + c, mask, acc);
    }
}

void
mlpGradAccumAvx2(std::size_t bn, std::size_t out, std::size_t in,
                 const double *d, std::size_t ldd, const double *a,
                 std::size_t lda, double *gw)
{
    // Register accumulators swept over all samples, stored once. Each
    // gw element still sees zero-init plus sample-ascending adds — the
    // same bits as a read-modify-write sweep — but without bn
    // store-forwarding round trips per element.
    std::size_t c = 0;
    for (; c + 4 <= in; c += 4)
        gradAccumPanelAvx2(bn, out, in, d, ldd, a, lda, gw, c, 4);
    if (c < in)
        gradAccumPanelAvx2(bn, out, in, d, ldd, a, lda, gw, c, in - c);
}

// ---------------------------------------------------------------------
// Masked reductions. The mask nibble for lanes [i, i+4) is bits
// (i % 64)..(i % 64 + 3) of valid[i / 64]; i advances in multiples of
// 4 and 4 divides 64, so a nibble never straddles a word boundary.
// Each term vector is computed from full (possibly NaN-poisoned) loads
// and then ANDed with the lane mask: an invalid lane becomes +0.0 bits
// regardless of its value — the same +0.0 the scalar tier adds — and
// an all-set mask leaves every term untouched, reproducing the dense
// kernel bit for bit.
// ---------------------------------------------------------------------

/** All-ones lane l iff bit l of the nibble is set. */
inline __m256d
maskFromNibble(std::uint64_t bits)
{
    const __m256i sel = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i hit = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(bits)), sel);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(hit, sel));
}

inline std::uint64_t
nibbleAt(const std::uint64_t *valid, std::size_t i)
{
    return (valid[i >> 6] >> (i & 63)) & 0xf;
}

inline bool
validBit(const std::uint64_t *valid, std::size_t i)
{
    return ((valid[i >> 6] >> (i & 63)) & 1u) != 0;
}

double
maskedDotAvx2(const double *a, const double *b,
              const std::uint64_t *valid, std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d p0 = _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d p1 = _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        const __m256d p2 = _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8));
        const __m256d p3 = _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12));
        v0 = _mm256_add_pd(
            v0, _mm256_and_pd(p0, maskFromNibble(nibbleAt(valid, i))));
        v1 = _mm256_add_pd(
            v1,
            _mm256_and_pd(p1, maskFromNibble(nibbleAt(valid, i + 4))));
        v2 = _mm256_add_pd(
            v2,
            _mm256_and_pd(p2, maskFromNibble(nibbleAt(valid, i + 8))));
        v3 = _mm256_add_pd(
            v3,
            _mm256_and_pd(p3, maskFromNibble(nibbleAt(valid, i + 12))));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += validBit(valid, i) ? a[i] * b[i] : 0.0;
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

double
maskedSumAvx2(const double *a, const std::uint64_t *valid, std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        v0 = _mm256_add_pd(
            v0, _mm256_and_pd(_mm256_loadu_pd(a + i),
                              maskFromNibble(nibbleAt(valid, i))));
        v1 = _mm256_add_pd(
            v1, _mm256_and_pd(_mm256_loadu_pd(a + i + 4),
                              maskFromNibble(nibbleAt(valid, i + 4))));
        v2 = _mm256_add_pd(
            v2, _mm256_and_pd(_mm256_loadu_pd(a + i + 8),
                              maskFromNibble(nibbleAt(valid, i + 8))));
        v3 = _mm256_add_pd(
            v3, _mm256_and_pd(_mm256_loadu_pd(a + i + 12),
                              maskFromNibble(nibbleAt(valid, i + 12))));
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += validBit(valid, i) ? a[i] : 0.0;
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

double
maskedSquaredDistanceAvx2(const double *a, const double *b,
                          const std::uint64_t *valid, std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8));
        const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12));
        v0 = _mm256_add_pd(
            v0, _mm256_and_pd(_mm256_mul_pd(d0, d0),
                              maskFromNibble(nibbleAt(valid, i))));
        v1 = _mm256_add_pd(
            v1, _mm256_and_pd(_mm256_mul_pd(d1, d1),
                              maskFromNibble(nibbleAt(valid, i + 4))));
        v2 = _mm256_add_pd(
            v2, _mm256_and_pd(_mm256_mul_pd(d2, d2),
                              maskFromNibble(nibbleAt(valid, i + 8))));
        v3 = _mm256_add_pd(
            v3, _mm256_and_pd(_mm256_mul_pd(d3, d3),
                              maskFromNibble(nibbleAt(valid, i + 12))));
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
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

double
maskedWeightedSquaredDistanceAvx2(const double *a, const double *b,
                                  const double *w,
                                  const std::uint64_t *valid,
                                  std::size_t n)
{
    __m256d v0 = _mm256_setzero_pd();
    __m256d v1 = _mm256_setzero_pd();
    __m256d v2 = _mm256_setzero_pd();
    __m256d v3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8));
        const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12));
        const __m256d wd0 = _mm256_mul_pd(_mm256_loadu_pd(w + i), d0);
        const __m256d wd1 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i + 4), d1);
        const __m256d wd2 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i + 8), d2);
        const __m256d wd3 =
            _mm256_mul_pd(_mm256_loadu_pd(w + i + 12), d3);
        v0 = _mm256_add_pd(
            v0, _mm256_and_pd(_mm256_mul_pd(wd0, d0),
                              maskFromNibble(nibbleAt(valid, i))));
        v1 = _mm256_add_pd(
            v1, _mm256_and_pd(_mm256_mul_pd(wd1, d1),
                              maskFromNibble(nibbleAt(valid, i + 4))));
        v2 = _mm256_add_pd(
            v2, _mm256_and_pd(_mm256_mul_pd(wd2, d2),
                              maskFromNibble(nibbleAt(valid, i + 8))));
        v3 = _mm256_add_pd(
            v3, _mm256_and_pd(_mm256_mul_pd(wd3, d3),
                              maskFromNibble(nibbleAt(valid, i + 12))));
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
    return foldAccumulators(v0, v1, v2, v3) + tail;
}

} // namespace

const KernelTable *
avx2Kernels()
{
    static const KernelTable kTable = {
        "avx2",
        dotAvx2,
        axpyAvx2,
        scaleAvx2,
        mulAddAvx2,
        gemmMicroAvx2,
        squaredDistanceAvx2,
        manhattanAvx2,
        weightedSquaredDistanceAvx2,
        centeredDotAvx2,
        mlpLayerNetsAvx2,
        mlpLayerDeltasAvx2,
        mlpUpdateLayerAvx2,
        mlpBatchNetsAvx2,
        mlpGradAccumAvx2,
        mlpLaneStepBody<4>,
        maskedDotAvx2,
        maskedSumAvx2,
        maskedSquaredDistanceAvx2,
        maskedWeightedSquaredDistanceAvx2,
    };
    return &kTable;
}

} // namespace dtrank::simd

#else // !defined(__AVX2__)

namespace dtrank::simd
{

const KernelTable *
avx2Kernels()
{
    return nullptr;
}

} // namespace dtrank::simd

#endif
