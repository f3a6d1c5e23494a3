/**
 * @file
 * The project's exp, written once as a body templated on the lane
 * width W and included by each tier's TU: scalar W = 1 (plain doubles,
 * fmaSoft in place of an FMA instruction), avx2 W = 4 and avx512 W = 8
 * (lane_vector.h, hardware FMA and gathers). It reproduces, bit for
 * bit, the exp of glibc 2.28+ as built for FMA CPUs (`__exp_fma`, the
 * algorithm of ARM's optimized-routines,
 * sysdeps/ieee754/dbl-64/e_exp.c), on every host and under any libm:
 *
 *   exp(x) = 2^(k/128) * exp(r),   x = k * ln2/128 + r,
 *   |r| <= ln2/256, 2^(k/128) from a 128-entry table (exp_table.h)
 *   and exp(r) - 1 from a degree-5 polynomial.
 *
 * The fused multiply-adds sit exactly where GCC contracts glibc's C
 * source under -mfma: the reduction kd = fma(InvLn2N, x, Shift) and
 * r = fma(kd, lo, fma(kd, hi, x)) (whose inner product is exact for
 * |x| < 709.7, so there W = 1 writes it as a mul and an add); the
 * polynomial
 * fma(r2 * r2, fma(r, C5, C4), fma(r2, fma(r, C3, C2), tail + r)); the
 * result fma(scale, tmp, scale), and the same in the k > 0 special
 * case. In the k < 0 special case (results near and below the
 * subnormal range) `scale + scale * tmp` and `scale - y + scale * tmp`
 * stay unfused, as in `__exp_fma`. Every other operation is a plain
 * IEEE mul or add, and the TUs build with -ffp-contract=off, so the
 * compiler fuses nothing else.
 *
 * The vector widths run the reduction and polynomial on all lanes at
 * once, with the table read through gathers. A vector holding any
 * live lane whose |x| lies outside [2^-54, 512) (tiny, huge, Inf or
 * NaN) runs every lane through the W = 1 body instead, which handles
 * those cases; lanes at or past `live` never send a vector there.
 * Every operation is elementwise, so each lane of every width has the
 * W = 1 bits.
 *
 * Internal linkage throughout, like mlp_lane_step.h: each tier's TU
 * gets its own copy, compiled for its own ISA.
 */

#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__AVX2__) || defined(__AVX512F__)
// dtrank-lint-ignore(no-raw-intrinsics): src/simd is the one
// directory where raw intrinsics are allowed.
#include <immintrin.h>
#endif

#include "simd/exp_table.h"
#include "simd/lane_vector.h"

namespace dtrank::simd
{

namespace
{

namespace exp_detail
{

constexpr double kInvLn2N = 0x1.71547652b82fep+7; // 128 / ln 2
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
constexpr double kShift = 0x1.8p52;
constexpr double kC2 = 0x1.ffffffffffdbdp-2;
constexpr double kC3 = 0x1.555555555543cp-3;
constexpr double kC4 = 0x1.55555cf172b91p-5;
constexpr double kC5 = 0x1.1111167a4d017p-7;

} // namespace exp_detail

/**
 * What exp needs of a lane width beyond LaneVector's arithmetic: U,
 * the unsigned 64-bit lanes; splat, fma, bit casts, a table gather,
 * and at W > 1 inRange, the bits of the lanes whose |x| lies in
 * [2^-54, 512).
 */
template <std::size_t W>
struct ExpLanes;

/**
 * fma(a, b, c) rounded once, from plain IEEE operations: Dekker's
 * exact product uh + ul = a * b, Knuth's exact sum th + tl = c + uh,
 * then RN(th + RO(tl + ul)), where RO rounds to odd (an inexact sum
 * with an even significand moves one ulp toward the exact value).
 * Boldo and Melquiond prove this rounds a * b + c correctly ("Emulation
 * of FMA and correctly rounded sums: proved algorithms using rounding
 * to odd", IEEE Trans. Computers 57(4), 2008) when no partial result
 * leaves the normal range, which holds for every fma of exp's W = 1
 * body: all its products lie within 2^+-900.
 */
inline double
fmaExact(double a, double b, double c)
{
    constexpr double kSplit = 0x1p27 + 1.0; // Veltkamp: 26 + 27 bits
    const double ta = kSplit * a;
    const double ah = ta - (ta - a);
    const double al = a - ah;
    const double tb = kSplit * b;
    const double bh = tb - (tb - b);
    const double bl = b - bh;
    const double uh = a * b;
    const double ul = ((ah * bh - uh) + ah * bl + al * bh) + al * bl;
    const double th = c + uh;
    const double cv = th - c;
    const double tl = (c - (th - cv)) + (uh - cv);
    const double v = tl + ul;
    const double vv = v - tl;
    const double w = (tl - (v - vv)) + (ul - vv);
    if (w == 0.0 || (std::bit_cast<std::uint64_t>(v) & 1u) != 0)
        return th + v;
    // v != 0 here (no underflow): step one ulp toward the exact sum.
    const std::uint64_t vb = std::bit_cast<std::uint64_t>(v);
    return th + std::bit_cast<double>((w > 0.0) == (v > 0.0) ? vb + 1
                                                             : vb - 1);
}

/**
 * fma(a, b, c) where the compiler has no FMA instruction to inline
 * (the scalar tier's TU). There std::fma is a libm call, and glibc's
 * software fma, which a CPU without FMA gets, saves and restores the
 * floating-point environment on every call: that made Table 2 on the
 * scalar tier over ten times slower. Instead, s = RN(p + c) with
 * p = RN(a * b) is the fused result unless p's rounding error, at most
 * |p| * 2^-53, can carry the exact p + c = s + t (t from Knuth's
 * TwoSum) across a rounding boundary of s, half an ulp away. An s at a
 * power of two (unequal spacing either side), zero or subnormal takes
 * fmaExact too. Same precondition as fmaExact. In exp's polynomial and
 * result the product is small beside the addend, so the fast path
 * almost always holds.
 */
inline double
fmaSoft(double a, double b, double c)
{
    const double p = a * b;
    const double s = p + c;
    const double z = s - c;
    const double t = (c - (s - z)) + (p - z);
    const std::uint64_t sb = std::bit_cast<std::uint64_t>(s);
    constexpr std::uint64_t kExpBits = 0x7ff0000000000000u;
    constexpr std::uint64_t kFracBits = 0x000fffffffffffffu;
    const std::uint64_t e = sb & kExpBits;
    if (e > (std::uint64_t{53} << 52) && e != kExpBits &&
        (sb & kFracBits) != 0) {
        const double halfUlp =
            std::bit_cast<double>(e - (std::uint64_t{53} << 52));
        if (std::fabs(t) + std::fabs(p) * 0x1p-53 < halfUlp)
            return s;
    }
    return fmaExact(a, b, c);
}

template <>
struct ExpLanes<1>
{
    using V = double;
    using U = std::uint64_t;

    static V splat(double d) { return d; }

    static V
    fma(V a, V b, V c)
    {
#if defined(__FP_FAST_FMA)
        return std::fma(a, b, c); // one instruction
#else
        return fmaSoft(a, b, c);
#endif
    }

    static U bits(V v) { return std::bit_cast<U>(v); }
    static V fromBits(U u) { return std::bit_cast<V>(u); }
    static U gather(const std::uint64_t *table, U idx) { return table[idx]; }
};

#if defined(__AVX2__) && defined(__FMA__)
template <>
struct ExpLanes<4>
{
    using V = LaneVector<4>::Type;
    typedef std::uint64_t U __attribute__((vector_size(4 * sizeof(double))));

    static V splat(double d) { return _mm256_set1_pd(d); }
    static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
    static U bits(V v) { return reinterpret_cast<U>(v); }
    static V fromBits(U u) { return reinterpret_cast<V>(u); }

    static U
    gather(const std::uint64_t *table, U idx)
    {
        return reinterpret_cast<U>(_mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(table),
            reinterpret_cast<__m256i>(idx), 8));
    }

    static unsigned
    inRange(V x)
    {
        const __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        const __m256d in = _mm256_and_pd(
            _mm256_cmp_pd(ax, _mm256_set1_pd(0x1p-54), _CMP_GE_OQ),
            _mm256_cmp_pd(ax, _mm256_set1_pd(512.0), _CMP_LT_OQ));
        return static_cast<unsigned>(_mm256_movemask_pd(in));
    }
};
#endif

#if defined(__AVX512F__)
template <>
struct ExpLanes<8>
{
    using V = LaneVector<8>::Type;
    typedef std::uint64_t U __attribute__((vector_size(8 * sizeof(double))));

    static V splat(double d) { return _mm512_set1_pd(d); }
    static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
    static U bits(V v) { return reinterpret_cast<U>(v); }
    static V fromBits(U u) { return reinterpret_cast<V>(u); }

    static U
    gather(const std::uint64_t *table, U idx)
    {
        // Without optimization GCC's header makes this intrinsic a
        // macro that passes an all-ones __mmask8 as the builtin's char:
        // a -Wsign-conversion false positive in Debug builds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-conversion"
        return reinterpret_cast<U>(_mm512_i64gather_epi64(
            reinterpret_cast<__m512i>(idx), table, 8));
#pragma GCC diagnostic pop
    }

    static unsigned
    inRange(V x)
    {
        const __m512d ax = _mm512_abs_pd(x);
        return static_cast<unsigned>(
            _mm512_cmp_pd_mask(ax, _mm512_set1_pd(0x1p-54), _CMP_GE_OQ) &
            _mm512_cmp_pd_mask(ax, _mm512_set1_pd(512.0), _CMP_LT_OQ));
    }
};
#endif

/** exp(x) = scale * (1 + tmp), with scale's bits in sbits. */
template <std::size_t W>
struct ExpTerms
{
    typename ExpLanes<W>::V tmp;
    typename ExpLanes<W>::U sbits;
    typename ExpLanes<W>::U ki; ///< k, the multiple of ln2/128, in its bits
};

/**
 * The range reduction, table lookup and polynomial of every lane.
 * sbits is the bits of 2^(k/128) only for -1023 * 128 < k < 1024 * 128,
 * which holds for |x| < 512; expSpecial handles the rest.
 */
template <std::size_t W>
inline ExpTerms<W>
expTerms(typename ExpLanes<W>::V x)
{
    static_assert(kExpTableWords == 2 * 128, "two words per k < 128");
    using namespace exp_detail;
    using L = ExpLanes<W>;
    using V = typename L::V;
    using U = typename L::U;
    V kd = L::fma(L::splat(kInvLn2N), x, L::splat(kShift));
    const U ki = L::bits(kd);
    kd -= kShift;
    // kd * NegLn2HiN is exact while |kd| <= 2^17 (NegLn2HiN has 36
    // significant bits), i.e. for |x| < 709.7: there a mul and an add
    // round once, as the fma does, and W = 1 writes them so, because
    // this sum cancels and would send fmaSoft to its slow path.
    V hiPart;
    if constexpr (W == 1)
        hiPart = std::fabs(kd) <= 0x1p17 ? kd * kNegLn2HiN + x
                                         : L::fma(kd, kNegLn2HiN, x);
    else
        hiPart = L::fma(kd, L::splat(kNegLn2HiN), x);
    const V r = L::fma(kd, L::splat(kNegLn2LoN), hiPart);
    const U idx = (ki & 127u) << 1;
    const V tail = L::fromBits(L::gather(kExpTable, idx));
    const U sbits = L::gather(kExpTable + 1, idx) + (ki << 45);
    const V r2 = r * r;
    const V tmp = L::fma(
        r2 * r2, L::fma(r, L::splat(kC5), L::splat(kC4)),
        L::fma(r2, L::fma(r, L::splat(kC3), L::splat(kC2)), tail + r));
    return {tmp, sbits, ki};
}

/** e^x for lanes whose |x| lies in [2^-54, 512): scale * (1 + tmp). */
template <std::size_t W>
inline typename ExpLanes<W>::V
expInRange(typename ExpLanes<W>::V x)
{
    using L = ExpLanes<W>;
    const ExpTerms<W> t = expTerms<W>(x);
    const typename L::V scale = L::fromBits(t.sbits);
    return L::fma(scale, t.tmp, scale);
}

/**
 * scale * (1 + tmp) for 512 <= |x| < 1024, where scale's exponent may
 * have over- or underflowed: rescaled by 2^1009 on the overflow side,
 * and on the underflow side rounded once to the subnormal precision
 * before scaling, so the result is not double-rounded.
 */
inline double
expSpecial(const ExpTerms<1> &t)
{
    if ((t.ki & 0x80000000u) == 0) {
        const double scale =
            std::bit_cast<double>(t.sbits - (std::uint64_t{1009} << 52));
        return 0x1p1009 * ExpLanes<1>::fma(scale, t.tmp, scale);
    }
    const double scale =
        std::bit_cast<double>(t.sbits + (std::uint64_t{1022} << 52));
    double y = scale + scale * t.tmp;
    if (y < 1.0) {
        double lo = scale - y + scale * t.tmp;
        const double hi = 1.0 + y;
        lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
    }
    return 0x1p-1022 * y;
}

/** exp of one double: the W = 1 body, with every special case. */
inline double
expLane(double x)
{
    constexpr std::uint32_t kTop12Tiny = 0x3c9; // top 12 bits of 2^-54
    constexpr std::uint32_t kTop12Big = 0x408;  // 512
    constexpr std::uint32_t kTop12Huge = 0x409; // 1024
    const std::uint64_t ux = std::bit_cast<std::uint64_t>(x);
    const std::uint32_t abstop = static_cast<std::uint32_t>(ux >> 52) & 0x7ff;
    if (abstop - kTop12Tiny < kTop12Big - kTop12Tiny)
        return expInRange<1>(x);
    if (abstop < kTop12Tiny)
        return 1.0 + x;
    if (abstop < kTop12Huge)
        return expSpecial(expTerms<1>(x));
    if (x == -std::numeric_limits<double>::infinity())
        return 0.0;
    if (abstop == 0x7ff) // +Inf, NaN
        return 1.0 + x;
    return (ux >> 63) != 0 ? 0.0 : std::numeric_limits<double>::infinity();
}

/**
 * e^x in every lane. At W > 1, a vector with a live lane (one below
 * `live`) outside the polynomial's range runs lane by lane through
 * expLane; the lanes at or past `live` may hold anything.
 */
template <std::size_t W>
inline typename ExpLanes<W>::V
expLanes(typename ExpLanes<W>::V x, std::size_t live = W)
{
    if constexpr (W == 1) {
        return expLane(x);
    } else {
        const unsigned liveBits = (1u << (live < W ? live : W)) - 1u;
        if ((~ExpLanes<W>::inRange(x) & liveBits) != 0) {
            double lanes[W];
            storeLanes(lanes, x);
            for (double &v : lanes)
                v = expLane(v);
            return loadLanes<W>(lanes);
        }
        return expInRange<W>(x);
    }
}

/** The logistic sigmoid 1 / (1 + e^-x) in every lane. */
template <std::size_t W>
inline typename ExpLanes<W>::V
sigmoidLanes(typename ExpLanes<W>::V x, std::size_t live = W)
{
    return 1.0 / (1.0 + expLanes<W>(-x, live));
}

} // namespace

} // namespace dtrank::simd
