/**
 * @file
 * Machine ranking utilities: turning predicted scores into an ordered
 * list of machines — the user-facing output of the methodology (guiding
 * purchase decisions, Section 4).
 */

#pragma once

#include <string>
#include <vector>

#include "dataset/perf_database.h"

namespace dtrank::core
{

/** One entry of a machine ranking. */
struct RankedMachine
{
    /** Index into the target machine set. */
    std::size_t machineIndex = 0;
    /** Predicted application-of-interest score. */
    double predictedScore = 0.0;
    /** 1-based rank (1 = best). */
    std::size_t rank = 0;
};

/** A full machine ranking, best machine first. */
class MachineRanking
{
  public:
    /** Builds the ranking from predicted scores (higher is better). */
    explicit MachineRanking(const std::vector<double> &predicted_scores);

    /** All entries, best first. */
    const std::vector<RankedMachine> &entries() const { return entries_; }

    /** Index of the predicted best machine. */
    std::size_t best() const;

    std::size_t size() const { return entries_.size(); }

    /**
     * Renders the top-n rows as a table using machine names from the
     * given database (which must have the same machine count/order as
     * the scores the ranking was built from).
     */
    std::string toTable(const dataset::PerfDatabase &target_db,
                        std::size_t n) const;

  private:
    std::vector<RankedMachine> entries_;
};

} // namespace dtrank::core

