/**
 * @file
 * Utilities for comparing predicted machine rankings against measured
 * ones beyond single scalar correlations: top-n overlap (does the
 * predicted shortlist contain the real winners?) and per-machine rank
 * displacement. These back the top-n purchasing analysis the extension
 * benches run.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace dtrank::core
{

/**
 * Fraction of the actual top-n machines that also appear in the
 * predicted top-n (|intersection| / n). 1.0 means the shortlist is
 * perfect; the order within the shortlist is not scored.
 */
double topNOverlap(const std::vector<double> &actual,
                   const std::vector<double> &predicted, std::size_t n);

/**
 * Per-machine displacement between the predicted and actual rankings:
 * displacement[i] = |rank_predicted(i) - rank_actual(i)| with 1-based
 * dense ranks (stable tie order).
 */
std::vector<std::size_t>
rankDisplacement(const std::vector<double> &actual,
                 const std::vector<double> &predicted);

/**
 * Largest per-machine displacement — how far the most misplaced
 * machine moved between the two rankings.
 */
std::size_t maxRankDisplacement(const std::vector<double> &actual,
                                const std::vector<double> &predicted);

} // namespace dtrank::core

