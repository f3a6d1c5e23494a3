/**
 * @file
 * The AVX2 tier: the templated vector body (kernels_vector.h) at 4
 * lanes. This file holds only what differs per width: the 16 canonical
 * partials live in four ymm accumulators and fold with the fixed
 * vector/128-bit tree, remainders use vmaskmovpd, and a nibble of the
 * validity mask becomes a lane mask. Compiled with -mavx2
 * (src/simd/CMakeLists.txt); on targets where the build system cannot
 * enable AVX2 this file compiles to a stub avx2Kernels() returning
 * null and the dispatcher never offers the tier.
 */

#include "simd/simd.h"

#if defined(__AVX2__)

// dtrank-lint-ignore(no-raw-intrinsics): this is the one directory
// where raw intrinsics are allowed; the include still trips the
// substring scan, so the suppression is spelled out for readers.
#include <immintrin.h>

#include "simd/kernels_vector.h"

namespace dtrank::simd
{

namespace
{

struct Avx2
{
    using V = LaneVector<4>::Type;
    using Mask = __m256i;

    /**
     * The canonical fold: lane-wise (p0 + p1) + (p2 + p3), then the
     * low/high 128-bit split-and-add, then element0 + element1 —
     * exactly combinePartials() of the scalar tier.
     */
    static double
    fold(const V *part)
    {
        const __m256d v = (part[0] + part[1]) + (part[2] + part[3]);
        const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(v),
                                        _mm256_extractf128_pd(v, 1));
        return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    }

    static Mask
    mask(std::size_t live)
    {
        const long long kAll = -1;
        return _mm256_setr_epi64x(live > 0 ? kAll : 0, live > 1 ? kAll : 0,
                                  live > 2 ? kAll : 0, live > 3 ? kAll : 0);
    }

    static V
    maskLoad(const double *p, Mask m)
    {
        return _mm256_maskload_pd(p, m);
    }

    static void
    maskStore(double *p, Mask m, V v)
    {
        _mm256_maskstore_pd(p, m, v);
    }

    /** AND with all-ones lane l iff bit l of the nibble is set. */
    static V
    keep(std::uint64_t bits, V v)
    {
        const __m256i sel = _mm256_setr_epi64x(1, 2, 4, 8);
        const __m256i hit = _mm256_and_si256(
            _mm256_set1_epi64x(static_cast<long long>(bits)), sel);
        return _mm256_and_pd(
            v, _mm256_castsi256_pd(_mm256_cmpeq_epi64(hit, sel)));
    }

    /** Clears the sign bit per lane. */
    static V
    abs(V v)
    {
        return _mm256_and_pd(
            v, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
    }
};

} // namespace

const KernelTable *
avx2Kernels()
{
    static constexpr KernelTable kTable = vectorKernelTable<Avx2>("avx2");
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
