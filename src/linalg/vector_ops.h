/**
 * @file
 * Free functions over std::vector<double> used by the statistics and
 * machine-learning layers.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace dtrank::linalg
{

/** Dot product; sizes must match. */
double dot(const std::vector<double> &a, const std::vector<double> &b);

/** Euclidean (L2) norm. */
double norm2(const std::vector<double> &v);

/** Elementwise a - b. */
std::vector<double> subtract(const std::vector<double> &a,
                             const std::vector<double> &b);

/** In-place a += factor * b (axpy). */
void addScaled(std::vector<double> &a, const std::vector<double> &b,
               double factor);

/** Squared Euclidean distance between two points. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

} // namespace dtrank::linalg

