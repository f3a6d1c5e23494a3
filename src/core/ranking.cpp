#include "core/ranking.h"

#include <algorithm>

#include "stats/ranking.h"
#include "util/error.h"
#include "util/string_utils.h"
#include "util/table.h"

namespace dtrank::core
{

MachineRanking::MachineRanking(const std::vector<double> &predicted_scores)
{
    util::require(!predicted_scores.empty(),
                  "MachineRanking: empty score vector");
    const auto order = stats::orderDescending(predicted_scores);
    entries_.reserve(order.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        RankedMachine e;
        e.machineIndex = order[pos];
        e.predictedScore = predicted_scores[order[pos]];
        e.rank = pos + 1;
        entries_.push_back(e);
    }
}

std::size_t
MachineRanking::best() const
{
    return entries_.front().machineIndex;
}

std::string
MachineRanking::toTable(const dataset::PerfDatabase &target_db,
                        std::size_t n) const
{
    util::require(target_db.machineCount() == entries_.size(),
                  "MachineRanking::toTable: database size mismatch");
    util::TablePrinter table({"rank", "machine", "vendor", "year",
                              "predicted score"});
    const std::size_t take = std::min(n, entries_.size());
    for (std::size_t i = 0; i < take; ++i) {
        const RankedMachine &e = entries_[i];
        const dataset::MachineInfo &m = target_db.machine(e.machineIndex);
        table.addRow({std::to_string(e.rank), m.name(), m.vendor,
                      std::to_string(m.releaseYear),
                      util::formatFixed(e.predictedScore, 2)});
    }
    return table.toString();
}

} // namespace dtrank::core
