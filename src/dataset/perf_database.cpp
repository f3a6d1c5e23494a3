#include "dataset/perf_database.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "simd/simd.h"
#include "stats/descriptive.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/string_utils.h"

namespace dtrank::dataset
{

std::string
MachineInfo::name() const
{
    return family + "/" + nickname + "#" + std::to_string(variant);
}

PerfDatabase::PerfDatabase(std::vector<BenchmarkInfo> benchmarks,
                           std::vector<MachineInfo> machines,
                           linalg::Matrix scores)
    : PerfDatabase(std::move(benchmarks), std::move(machines),
                   std::move(scores), ScoreMask{})
{
}

PerfDatabase::PerfDatabase(std::vector<BenchmarkInfo> benchmarks,
                           std::vector<MachineInfo> machines,
                           linalg::Matrix scores, ScoreMask mask)
    : PerfDatabase(SelectionView{}, std::move(benchmarks),
                   std::move(machines), std::move(scores),
                   std::move(mask))
{
    if (!mask_.dense())
        mask_.requireNoEmptyLines("PerfDatabase");
}

PerfDatabase::PerfDatabase(SelectionView,
                           std::vector<BenchmarkInfo> benchmarks,
                           std::vector<MachineInfo> machines,
                           linalg::Matrix scores, ScoreMask mask)
    : benchmarks_(std::move(benchmarks)), machines_(std::move(machines)),
      scores_(std::move(scores)), mask_(std::move(mask))
{
    util::require(scores_.rows() == benchmarks_.size(),
                  "PerfDatabase: benchmark/row count mismatch");
    util::require(scores_.cols() == machines_.size(),
                  "PerfDatabase: machine/column count mismatch");
    if (!mask_.dense())
        util::require(mask_.rows() == scores_.rows() &&
                          mask_.cols() == scores_.cols(),
                      "PerfDatabase: mask/score shape mismatch");
    for (std::size_t b = 0; b < scores_.rows(); ++b)
        for (std::size_t m = 0; m < scores_.cols(); ++m) {
            if (mask_.valid(b, m))
                util::require(std::isfinite(scores_(b, m)) &&
                                  scores_(b, m) > 0.0,
                              "PerfDatabase: scores must be positive "
                              "and finite");
            else
                scores_(b, m) =
                    std::numeric_limits<double>::quiet_NaN();
        }
}

const BenchmarkInfo &
PerfDatabase::benchmark(std::size_t b) const
{
    util::require(b < benchmarks_.size(),
                  "PerfDatabase::benchmark: index out of range");
    return benchmarks_[b];
}

const MachineInfo &
PerfDatabase::machine(std::size_t m) const
{
    util::require(m < machines_.size(),
                  "PerfDatabase::machine: index out of range");
    return machines_[m];
}

double
PerfDatabase::score(std::size_t b, std::size_t m) const
{
    return scores_.at(b, m);
}

std::vector<double>
PerfDatabase::benchmarkScores(std::size_t b) const
{
    util::require(b < benchmarks_.size(),
                  "PerfDatabase::benchmarkScores: index out of range");
    return scores_.row(b);
}

std::vector<double>
PerfDatabase::machineScores(std::size_t m) const
{
    util::require(m < machines_.size(),
                  "PerfDatabase::machineScores: index out of range");
    return scores_.column(m);
}

void
PerfDatabase::machineScoresInto(std::size_t m,
                                std::vector<double> &out) const
{
    util::require(m < machines_.size(),
                  "PerfDatabase::machineScoresInto: index out of range");
    out.resize(benchmarks_.size());
    for (std::size_t b = 0; b < benchmarks_.size(); ++b)
        out[b] = scores_(b, m);
}

std::size_t
PerfDatabase::benchmarkIndex(const std::string &name) const
{
    for (std::size_t b = 0; b < benchmarks_.size(); ++b)
        if (benchmarks_[b].name == name)
            return b;
    throw util::InvalidArgument("PerfDatabase: unknown benchmark '" + name +
                                "'");
}

bool
PerfDatabase::hasBenchmark(const std::string &name) const
{
    return std::any_of(benchmarks_.begin(), benchmarks_.end(),
                       [&](const BenchmarkInfo &b) {
                           return b.name == name;
                       });
}

PerfDatabase
PerfDatabase::selectMachines(
    const std::vector<std::size_t> &machine_indices) const
{
    std::vector<MachineInfo> machines;
    machines.reserve(machine_indices.size());
    for (std::size_t m : machine_indices) {
        util::require(m < machines_.size(),
                      "PerfDatabase::selectMachines: index out of range");
        machines.push_back(machines_[m]);
    }
    return PerfDatabase(SelectionView{}, benchmarks_, std::move(machines),
                        scores_.selectColumns(machine_indices),
                        mask_.selectColumns(machine_indices));
}

std::vector<std::size_t>
PerfDatabase::machinesWhere(
    const std::function<bool(const MachineInfo &)> &pred) const
{
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < machines_.size(); ++m)
        if (pred(machines_[m]))
            out.push_back(m);
    return out;
}

std::vector<std::size_t>
PerfDatabase::machineIndicesByFamily(const std::string &family) const
{
    return machinesWhere([&](const MachineInfo &m) {
        return m.family == family;
    });
}

std::vector<std::size_t>
PerfDatabase::machineIndicesByYear(int year) const
{
    return machinesWhere([&](const MachineInfo &m) {
        return m.releaseYear == year;
    });
}

std::vector<std::size_t>
PerfDatabase::machineIndicesBeforeYear(int year) const
{
    return machinesWhere([&](const MachineInfo &m) {
        return m.releaseYear < year;
    });
}

std::vector<std::string>
PerfDatabase::families() const
{
    std::set<std::string> uniq;
    for (const MachineInfo &m : machines_)
        uniq.insert(m.family);
    return {uniq.begin(), uniq.end()};
}

std::vector<double>
PerfDatabase::machineGeometricMeans() const
{
    std::vector<double> out(machines_.size());
    std::vector<double> column;
    std::vector<double> observed;
    for (std::size_t m = 0; m < machines_.size(); ++m) {
        machineScoresInto(m, column);
        if (!masked()) {
            out[m] = stats::geometricMean(column);
            continue;
        }
        observed.clear();
        for (std::size_t b = 0; b < column.size(); ++b)
            if (mask_.valid(b, m))
                observed.push_back(column[b]);
        out[m] = observed.empty() ? 1.0 : stats::geometricMean(observed);
    }
    return out;
}

void
PerfDatabase::saveCsv(const std::string &path) const
{
    util::require(!masked(), "PerfDatabase::saveCsv: masked database "
                             "(use the .dtc columnar format)");
    util::CsvRows rows;
    // Header: benchmark metadata placeholder + encoded machine columns.
    std::vector<std::string> header;
    header.push_back("benchmark|domain|language|area");
    for (const MachineInfo &m : machines_) {
        header.push_back(m.vendor + "|" + m.family + "|" + m.nickname +
                         "|" + m.isa + "|" + std::to_string(m.releaseYear) +
                         "|" + std::to_string(m.variant));
    }
    rows.push_back(header);

    for (std::size_t b = 0; b < benchmarks_.size(); ++b) {
        const BenchmarkInfo &info = benchmarks_[b];
        std::vector<std::string> row;
        row.push_back(info.name + "|" +
                      (info.domain == BenchmarkDomain::Integer ? "int"
                                                               : "fp") +
                      "|" + info.language + "|" + info.area);
        for (std::size_t m = 0; m < machines_.size(); ++m)
            row.push_back(util::formatFixed(scores_(b, m), 6));
        rows.push_back(row);
    }
    util::writeCsvFile(path, rows);
}

PerfDatabase
PerfDatabase::loadCsv(const std::string &path)
{
    const util::CsvRows rows = util::readCsvFile(path);
    if (rows.size() < 2 || rows.front().size() < 2)
        throw util::IoError("PerfDatabase::loadCsv: malformed file '" +
                            path + "'");

    const std::vector<std::string> &header = rows.front();
    std::vector<MachineInfo> machines;
    for (std::size_t c = 1; c < header.size(); ++c) {
        const auto parts = util::split(header[c], '|');
        if (parts.size() != 6)
            throw util::IoError("PerfDatabase::loadCsv: bad machine header "
                                "'" + header[c] + "'");
        MachineInfo m;
        m.vendor = parts[0];
        m.family = parts[1];
        m.nickname = parts[2];
        m.isa = parts[3];
        m.releaseYear = static_cast<int>(util::parseLong(parts[4]));
        m.variant = static_cast<int>(util::parseLong(parts[5]));
        machines.push_back(std::move(m));
    }

    std::vector<BenchmarkInfo> benchmarks;
    linalg::Matrix scores(rows.size() - 1, machines.size());
    for (std::size_t r = 1; r < rows.size(); ++r) {
        const auto &row = rows[r];
        if (row.size() != header.size())
            throw util::IoError("PerfDatabase::loadCsv: ragged row in '" +
                                path + "'");
        const auto parts = util::split(row[0], '|');
        if (parts.size() != 4)
            throw util::IoError("PerfDatabase::loadCsv: bad benchmark "
                                "label '" + row[0] + "'");
        BenchmarkInfo b;
        b.name = parts[0];
        b.domain = parts[1] == "int" ? BenchmarkDomain::Integer
                                     : BenchmarkDomain::FloatingPoint;
        b.language = parts[2];
        b.area = parts[3];
        benchmarks.push_back(std::move(b));
        for (std::size_t c = 1; c < row.size(); ++c)
            scores(r - 1, c - 1) = util::parseDouble(row[c]);
    }
    return PerfDatabase(std::move(benchmarks), std::move(machines),
                        std::move(scores));
}

PerfDatabase
applyMissingness(const PerfDatabase &db, double fraction,
                 std::uint64_t seed)
{
    util::require(!db.masked(),
                  "applyMissingness: database is already masked");
    if (fraction <= 0.0)
        return db;
    ScoreMask mask = ScoreMask::sample(db.benchmarkCount(),
                                       db.machineCount(), fraction, seed);
    return PerfDatabase(db.benchmarks(), db.machines(), db.scores(),
                        std::move(mask));
}

PerfDatabase
imputeObserved(const PerfDatabase &db)
{
    if (!db.masked())
        return db;
    const ScoreMask &mask = db.mask();
    linalg::Matrix scores = db.scores();
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b) {
        // Per-benchmark observed mean; requireNoEmptyLines in the
        // masked constructor guarantees at least one observed cell.
        const double sum = simd::kernels().maskedSum(
            db.benchmarkScoresData(b), mask.rowData(b),
            db.machineCount());
        const double mean =
            sum / static_cast<double>(mask.observedInRow(b));
        for (std::size_t m = 0; m < db.machineCount(); ++m)
            if (!mask.valid(b, m))
                scores(b, m) = mean;
    }
    return PerfDatabase(db.benchmarks(), db.machines(),
                        std::move(scores));
}

} // namespace dtrank::dataset
