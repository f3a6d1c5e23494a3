#include "linalg/vector_ops.h"

#include <cmath>

#include "simd/simd.h"
#include "util/error.h"

namespace dtrank::linalg
{

// The dense sweeps all route through the runtime-dispatched kernel
// layer (simd/simd.h); this file only keeps the vector-of-double
// conveniences and their size checks.

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    util::require(a.size() == b.size(), "dot: size mismatch");
    return simd::dot(a.data(), b.data(), a.size());
}

double
norm2(const std::vector<double> &v)
{
    return std::sqrt(dot(v, v));
}

std::vector<double>
subtract(const std::vector<double> &a, const std::vector<double> &b)
{
    util::require(a.size() == b.size(), "subtract: size mismatch");
    std::vector<double> out(a);
    simd::axpy(out.data(), b.data(), -1.0, b.size());
    return out;
}

void
addScaled(std::vector<double> &a, const std::vector<double> &b,
          double factor)
{
    util::require(a.size() == b.size(), "addScaled: size mismatch");
    simd::axpy(a.data(), b.data(), factor, a.size());
}

double
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    util::require(a.size() == b.size(), "squaredDistance: size mismatch");
    return simd::squaredDistance(a.data(), b.data(), a.size());
}

} // namespace dtrank::linalg
