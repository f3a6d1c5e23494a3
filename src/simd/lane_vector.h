/**
 * @file
 * "W doubles in one value" for the templated kernel bodies
 * (kernels_vector.h, mlp_lane_step.h): a plain double at W = 1, a GCC
 * vector of W doubles otherwise, lowered to the including TU's
 * registers by its -m flags. Arithmetic on these types is elementwise,
 * so the width never changes a lane's bits.
 *
 * Internal linkage throughout: each tier's TU gets its own copy,
 * compiled for its own ISA.
 */

#pragma once

#include <cstddef>

namespace dtrank::simd
{

namespace
{

/**
 * W lanes in one value, plus an unaligned alias of it for loads and
 * stores. Spelled out per width because GCC drops a vector_size
 * attribute whose size depends on a template parameter. Access goes
 * through the may_alias alias, as in GCC's own _mm256_loadu_pd: a
 * std::memcpy store compiles to the integer-domain vmovdqu.
 */
template <std::size_t W>
struct LaneVector;

template <>
struct LaneVector<1>
{
    using Type = double;
    using Unaligned = double;
};

template <>
struct LaneVector<4>
{
    typedef double Type __attribute__((vector_size(4 * sizeof(double))));
    typedef double Unaligned __attribute__((
        vector_size(4 * sizeof(double)), aligned(sizeof(double)),
        may_alias));
};

template <>
struct LaneVector<8>
{
    typedef double Type __attribute__((vector_size(8 * sizeof(double))));
    typedef double Unaligned __attribute__((
        vector_size(8 * sizeof(double)), aligned(sizeof(double)),
        may_alias));
};

/** The W doubles at p (any double alignment). */
template <std::size_t W>
inline typename LaneVector<W>::Type
loadLanes(const double *p)
{
    return *reinterpret_cast<const typename LaneVector<W>::Unaligned *>(p);
}

/** Stores the lanes of v at p (any double alignment). */
template <typename V>
inline void
storeLanes(double *p, V v)
{
    constexpr std::size_t kW = sizeof(V) / sizeof(double);
    *reinterpret_cast<typename LaneVector<kW>::Unaligned *>(p) = v;
}

} // namespace

} // namespace dtrank::simd
