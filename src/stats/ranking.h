/**
 * @file
 * Rank computation with tie handling, the basis of the Spearman rank
 * correlation used throughout the paper's evaluation (Section 6.1).
 */

#pragma once

#include <cstddef>
#include <vector>

namespace dtrank::stats
{

/**
 * Computes 1-based ranks of the input values, smallest value gets rank 1.
 * Tied values share the average of their positions, as the standard
 * Spearman definition asks.
 *
 * @param values The observations.
 * @return ranks[i] is the rank of values[i].
 */
std::vector<double> rankData(const std::vector<double> &values);

/**
 * Returns the indices that would sort `values` descending, i.e. the
 * ranking of machines from best to worst performance.
 * Ties keep their original relative order (stable).
 */
std::vector<std::size_t> orderDescending(const std::vector<double> &values);

} // namespace dtrank::stats

