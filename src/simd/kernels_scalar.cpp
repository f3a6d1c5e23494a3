/**
 * @file
 * The scalar tier: the templated kernel body (kernels_vector.h) at one
 * lane. This file holds only what differs per width: the 16 canonical
 * partials are 16 plain doubles folded by the combine tree written
 * out, and a "vector" is one double, so every block is whole.
 *
 * Compiled with -fno-tree-vectorize (src/simd/CMakeLists.txt), so
 * "scalar" keeps meaning scalar code. The bits do not depend on it:
 * the canonical reduction fixes the arithmetic order either way.
 */

#include "simd/simd.h"


#include "simd/kernels_vector.h"

namespace dtrank::simd
{

namespace
{

struct Scalar
{
    using V = double;

    /** Unused: at one lane forBlocks never reaches a partial block. */
    struct Mask
    {
    };

    /**
     * The canonical combine tree (simd.h) over the 16 partials:
     * (s[l] + s[l+4]) + (s[l+8] + s[l+12]) per lane l, then
     * (L0 + L2) + (L1 + L3).
     */
    static double
    fold(const V *s)
    {
        const double l0 = (s[0] + s[4]) + (s[8] + s[12]);
        const double l1 = (s[1] + s[5]) + (s[9] + s[13]);
        const double l2 = (s[2] + s[6]) + (s[10] + s[14]);
        const double l3 = (s[3] + s[7]) + (s[11] + s[15]);
        return (l0 + l2) + (l1 + l3);
    }

    static Mask
    mask(std::size_t)
    {
        return {};
    }

    static V
    maskLoad(const double *p, Mask)
    {
        return *p;
    }

    static void
    maskStore(double *p, Mask, V v)
    {
        *p = v;
    }

    static V
    keep(std::uint64_t bits, V v)
    {
        return bits != 0 ? v : 0.0;
    }
};

} // namespace

double
exp(double x)
{
    return expLanes<1>(x);
}

const KernelTable &
scalarKernels()
{
    static constexpr KernelTable kTable = vectorKernelTable<Scalar>("scalar");
    return kTable;
}

} // namespace dtrank::simd
