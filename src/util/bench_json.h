/**
 * @file
 * Machine-readable timing records for the reproduction benchmarks.
 *
 * Every protocol binary accepts `--json <path>` and appends one
 * `BENCH_<binary>.<section>` record per timed section, so the perf
 * trajectory of the repository can be tracked across PRs by diffing the
 * emitted files instead of scraping stdout tables.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace dtrank::util
{

/** One timed section of a benchmark run. */
struct BenchRecord
{
    /** Record name, conventionally "BENCH_<binary>.<section>". */
    std::string name;
    /** Wall-clock time of the section in milliseconds. */
    double realTimeMs = 0.0;
    /** Free-form context (thread count, seed, dataset, ...). */
    std::vector<std::pair<std::string, std::string>> context;
};

/**
 * Collects BenchRecords and writes them as a JSON document
 * `{"benchmark": ..., "context": {...}, "records": [...]}`.
 */
class BenchJsonWriter
{
  public:
    /** @param benchmark Name of the emitting binary. */
    explicit BenchJsonWriter(std::string benchmark);

    /** Adds one finished record. */
    void add(BenchRecord record);

    /**
     * Appends one run-wide context entry (dispatch tier, CPU feature
     * flags, thread count, ...), emitted once in the document's
     * "context" object rather than per record.
     */
    void addContext(std::string key, std::string value);

    /**
     * Convenience: builds a "BENCH_<benchmark>.<section>" record from a
     * start time captured with util::monotonicNow(), so bench records
     * share the trace spans' time base.
     */
    void addTimed(const std::string &section,
                  MonotonicClock::time_point start,
                  std::vector<std::pair<std::string, std::string>>
                      context = {});

    /** Number of records collected so far. */
    std::size_t size() const { return records_.size(); }

    /** Serializes the collected records. */
    std::string toJson() const;

    /**
     * Writes toJson() to `path`; throws util::IoError when the file
     * cannot be written. No-op when `path` is empty (flag unset).
     */
    void writeTo(const std::string &path) const;

  private:
    std::string benchmark_;
    std::vector<std::pair<std::string, std::string>> context_;
    std::vector<BenchRecord> records_;
};

} // namespace dtrank::util

