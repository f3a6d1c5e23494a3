/**
 * @file
 * The performance database at the heart of the methodology (Figure 2 of
 * the paper): a benchmarks x machines matrix of SPEC-style speed ratios
 * plus machine and benchmark metadata.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dataset/masked_matrix.h"
#include "linalg/matrix.h"

namespace dtrank::dataset
{

/** Integer vs floating-point side of SPEC CPU2006. */
enum class BenchmarkDomain { Integer, FloatingPoint };

/** Metadata for one benchmark in the suite. */
struct BenchmarkInfo
{
    /** SPEC short name, e.g. "leslie3d". */
    std::string name;
    BenchmarkDomain domain = BenchmarkDomain::Integer;
    /** Source language, e.g. "C", "C++", "Fortran". */
    std::string language;
    /** Application area, e.g. "Quantum Computing". */
    std::string area;
};

/** Metadata for one commercial machine (one column of the database). */
struct MachineInfo
{
    /** Vendor, e.g. "Intel". */
    std::string vendor;
    /** Processor family as in Table 1, e.g. "Intel Xeon". */
    std::string family;
    /** CPU nickname as in Table 1, e.g. "Gainestown". */
    std::string nickname;
    /** Instruction-set architecture, e.g. "x86-64". */
    std::string isa;
    /** Year the machine type was released. */
    int releaseYear = 0;
    /** Which of the (three) machines of this nickname this is (0-based). */
    int variant = 0;

    /** Unique display name, e.g. "Intel Xeon/Gainestown#1". */
    std::string name() const;
};

/**
 * Immutable performance database: benchmark rows, machine columns,
 * strictly positive SPEC-style speed ratios.
 */
class PerfDatabase
{
  public:
    PerfDatabase() = default;

    /**
     * @param benchmarks Row metadata.
     * @param machines Column metadata.
     * @param scores benchmarks.size() x machines.size() matrix of
     *        positive speed ratios.
     */
    PerfDatabase(std::vector<BenchmarkInfo> benchmarks,
                 std::vector<MachineInfo> machines,
                 linalg::Matrix scores);

    /**
     * Ragged database: `mask` records which cells were observed
     * (benchmarks x machines, like `scores`). Only observed cells must
     * be positive; unobserved cells are overwritten with quiet NaN so
     * any non-mask-aware consumer visibly corrupts instead of silently
     * using a stale value. A dense-sentinel mask makes this identical
     * to the dense constructor. All-missing rows/columns are rejected —
     * but only here, at top-level construction: selectMachines views
     * may legitimately carry empty sub-lines (a benchmark unobserved on
     * every owned machine) and the model stack treats those as
     * contributing no training data.
     */
    PerfDatabase(std::vector<BenchmarkInfo> benchmarks,
                 std::vector<MachineInfo> machines, linalg::Matrix scores,
                 ScoreMask mask);

    std::size_t benchmarkCount() const { return benchmarks_.size(); }
    std::size_t machineCount() const { return machines_.size(); }

    const BenchmarkInfo &benchmark(std::size_t b) const;
    const MachineInfo &machine(std::size_t m) const;
    const std::vector<BenchmarkInfo> &benchmarks() const
    {
        return benchmarks_;
    }
    const std::vector<MachineInfo> &machines() const { return machines_; }

    /** Speed ratio of benchmark b on machine m. */
    double score(std::size_t b, std::size_t m) const;

    /** Whole score matrix (benchmarks x machines). */
    const linalg::Matrix &scores() const { return scores_; }

    /** Validity mask (the dense sentinel for a fully observed db). */
    const ScoreMask &mask() const { return mask_; }

    /** True when the database carries a materialized validity mask. */
    bool masked() const { return !mask_.dense(); }

    /** Scores of one benchmark across all machines (a matrix row). */
    std::vector<double> benchmarkScores(std::size_t b) const;

    /** Scores of all benchmarks on one machine (a matrix column). */
    std::vector<double> machineScores(std::size_t m) const;

    /**
     * Zero-copy view of one benchmark row (machineCount() doubles,
     * contiguous). Invalidated by destroying/moving the database. At
     * 100k machines the copying benchmarkScores() is a 800 KB
     * allocation per call — hot loops should use this instead.
     */
    const double *
    benchmarkScoresData(std::size_t b) const
    {
        util::require(b < benchmarks_.size(),
                      "PerfDatabase::benchmarkScoresData: out of range");
        return scores_.rowData(b);
    }

    /**
     * Fills a caller-owned buffer with one machine column
     * (benchmarkCount() doubles). Resizes `out` only when needed, so a
     * buffer reused across a loop over machines never reallocates.
     */
    void machineScoresInto(std::size_t m, std::vector<double> &out) const;

    /** Index of the named benchmark. @throws InvalidArgument if absent. */
    std::size_t benchmarkIndex(const std::string &name) const;

    /** True when the named benchmark exists. */
    bool hasBenchmark(const std::string &name) const;

    /** Database restricted to the given machine columns (in order). */
    PerfDatabase selectMachines(
        const std::vector<std::size_t> &machine_indices) const;

    /** Indices of machines matching a predicate, ascending. */
    std::vector<std::size_t> machinesWhere(
        const std::function<bool(const MachineInfo &)> &pred) const;

    /** Indices of machines in the given processor family. */
    std::vector<std::size_t>
    machineIndicesByFamily(const std::string &family) const;

    /** Indices of machines released in the given year. */
    std::vector<std::size_t> machineIndicesByYear(int year) const;

    /** Indices of machines released strictly before the given year. */
    std::vector<std::size_t> machineIndicesBeforeYear(int year) const;

    /** Sorted unique processor family names. */
    std::vector<std::string> families() const;

    /**
     * Geometric-mean score of each machine across all benchmarks —
     * the observed ones only under a mask (1.0 for a machine with
     * nothing observed, possible only in a benchmark selection).
     */
    std::vector<double> machineGeometricMeans() const;

    /** Serializes to CSV (header row + one row per benchmark). */
    void saveCsv(const std::string &path) const;

    /** Reads back a database written by saveCsv. */
    static PerfDatabase loadCsv(const std::string &path);

  private:
    /** Tag for the selection path: shape checks, no empty-line gate. */
    struct SelectionView
    {
    };

    PerfDatabase(SelectionView, std::vector<BenchmarkInfo> benchmarks,
                 std::vector<MachineInfo> machines, linalg::Matrix scores,
                 ScoreMask mask);

    std::vector<BenchmarkInfo> benchmarks_;
    std::vector<MachineInfo> machines_;
    linalg::Matrix scores_;
    ScoreMask mask_;
};

/**
 * Deterministically drops `fraction` of the cells of a dense database
 * (ScoreMask::sample with the given seed): the ragged-dataset axis the
 * --missing option exposes. fraction <= 0 returns the input unchanged.
 */
PerfDatabase applyMissingness(const PerfDatabase &db, double fraction,
                              std::uint64_t seed);

/**
 * Fills every unobserved cell with its benchmark's observed-mean score
 * and drops the mask — the serving-side "impute" policy. A dense input
 * is returned unchanged.
 */
PerfDatabase imputeObserved(const PerfDatabase &db);

} // namespace dtrank::dataset

