/**
 * @file
 * Shared command-line plumbing for the protocol bench binaries: the
 * --json flag selecting a machine-readable BENCH_*.json output path,
 * the --simd, --dataset and --missing inputs, and the observability
 * flags --metrics-out (Prometheus text or metrics JSON) and
 * --trace-out (Chrome trace_event JSON).
 */

#pragma once

#include <cstdint>
#include <string>

#include "dataset/latent_model.h"
#include "dataset/perf_database.h"
#include "experiments/harness.h"
#include "linalg/matrix.h"
#include "simd/simd.h"
#include "util/bench_json.h"
#include "util/cli.h"

namespace dtrank::experiments
{

/**
 * Registers --json, --simd, --metrics-out, --trace-out, --dataset and
 * --missing.
 */
void addBenchOptions(util::ArgParser &args);

/** Parsed form of a --dataset argument. */
struct DatasetSpec
{
    /** False = the paper's 117 x 29 database. */
    bool scaled = false;
    /** Machine count (scaled only). */
    std::size_t machines = 0;
    /** Benchmark count (scaled only; 0 = the paper's 29). */
    std::size_t benchmarks = 0;
    /** Explicit seed; 0 = inherit the bench's --seed value. */
    std::uint64_t seed = 0;
};

/**
 * Parses "paper" or "scaled:<machines>[x<benchmarks>][:<seed>]"
 * (e.g. "scaled:10000", "scaled:10000x58:7").
 * @throws util::InvalidArgument on anything else.
 */
DatasetSpec parseDatasetSpec(const std::string &value);

/** Parsed form of a --missing argument. */
struct MissingSpec
{
    /** Fraction of score cells hidden, in [0, 1). 0 = fully observed. */
    double fraction = 0.0;
    /** Mask sampling seed. */
    std::uint64_t seed = 2011;
};

/**
 * Parses "<fraction>[:<seed>]" (e.g. "0.3", "0.3:7"); "0" or "" keep
 * the database fully observed.
 * @throws util::InvalidArgument on anything else.
 */
MissingSpec parseMissingSpec(const std::string &value);

/** A bench's input data: database + matching MICA characteristics. */
struct BenchDataset
{
    dataset::PerfDatabase db;
    linalg::Matrix characteristics;
    /**
     * The latent benchmark profiles behind `db`'s rows, for benches
     * that regenerate characteristics under a custom MicaConfig
     * (e.g. the no-disguise ablation).
     */
    std::vector<dataset::BenchmarkProfile> benchmarkProfiles;
    /** Canonical description, e.g. "paper" or "scaled:10000x29:2011". */
    std::string description;
};

/**
 * Builds the database selected by --dataset: the paper dataset (with
 * `fallback_seed`) by default, or a scaled one with matching
 * characteristics derived from its benchmark profiles. A non-zero
 * --missing fraction then hides that share of score cells behind a
 * validity mask (dataset::applyMissingness). When `json` is non-null
 * the canonical dataset description is recorded in the document
 * context.
 */
BenchDataset loadDatasetOption(const util::ArgParser &args,
                               std::uint64_t fallback_seed,
                               util::BenchJsonWriter *json = nullptr);

/**
 * Applies --simd (auto | scalar | avx2) to the process-wide kernel
 * dispatch. "auto" keeps whatever the environment (DTRANK_SIMD or
 * cpuid) resolved; an explicit unknown name throws
 * util::InvalidArgument; an explicit but unavailable tier warns and
 * falls back to scalar. When `json` is non-null the resolved tier and
 * the CPU feature flags are recorded in the document context.
 * @return The tier actually active after applying the flag.
 */
simd::Tier applySimdOption(const util::ArgParser &args,
                           util::BenchJsonWriter *json = nullptr);

/**
 * Applies the observability flags' side effects that must happen
 * before the run: enables the global TraceCollector when --trace-out
 * was given a path. Call once, right after parsing.
 */
void applyObservabilityOptions(const util::ArgParser &args);

/**
 * Writes the end-of-run observability artifacts: the global metrics
 * registry to --metrics-out (Prometheus text, or the BenchJsonWriter
 * document when the path ends in ".json") and the global trace
 * collector to --trace-out (Chrome trace_event JSON). No-op for each
 * flag left empty. Call once, after the run's work is done.
 */
void writeObservabilityOutputs(const util::ArgParser &args);

} // namespace dtrank::experiments

