/**
 * @file
 * Euclidean distance over feature vectors, and the pairwise distance
 * matrix k-medoids clusters from.
 */

#pragma once

#include <vector>

namespace dtrank::ml
{

/** Euclidean (L2) distance between two equally sized points. */
double euclideanDistance(const std::vector<double> &a,
                         const std::vector<double> &b);

/**
 * Full pairwise Euclidean distance matrix of a point set (symmetric,
 * zero diagonal), used by k-medoids.
 */
std::vector<std::vector<double>>
pairwiseDistances(const std::vector<std::vector<double>> &points);

} // namespace dtrank::ml
