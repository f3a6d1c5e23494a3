/**
 * @file
 * Tolerance comparison of matrices for tests.
 */

#pragma once

#include <cmath>
#include <cstddef>

#include "linalg/matrix.h"

namespace dtrank::test
{

/** True when the shapes match and all elements differ by <= tol. */
inline bool
approxEquals(const linalg::Matrix &a, const linalg::Matrix &b,
             double tol = 1e-12)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        if (std::fabs(a.data()[i] - b.data()[i]) > tol)
            return false;
    return true;
}

} // namespace dtrank::test
