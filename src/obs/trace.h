/**
 * @file
 * RAII trace spans emitting Chrome trace_event JSON.
 *
 * TraceSpan brackets a scope (a protocol split, an Mlp::fit, a GA
 * generation) with monotonic-clock timestamps from util/clock.h; the
 * finished spans accumulate in a TraceCollector and are written as a
 * `{"traceEvents": [...]}` document (`--trace-out <path>`) that opens
 * directly in chrome://tracing or Perfetto.
 *
 * Tracing is off by default. A span constructed while the collector is
 * disabled costs one relaxed atomic load and stores nothing — cheap
 * enough to leave spans compiled into the hot protocol paths — and the
 * determinism contract holds either way, because spans only observe
 * time, never feed it back into computation.
 *
 * The collector shards finished events across cache-line-padded,
 * mutex-guarded slots keyed by the ThreadPool worker slot (the same
 * index the metrics layer uses and the `tid` the trace viewer shows),
 * so concurrent workers rarely contend on the same slot mutex.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dtrank::obs
{

/** One finished span, ready to serialize as a trace_event. */
struct TraceEvent
{
    std::string name;
    std::string category;
    std::uint64_t startNanos = 0; ///< Relative to processEpoch().
    std::uint64_t durationNanos = 0;
    std::size_t tid = 0; ///< ThreadPool worker slot at span end.
    /** Free-form `args` entries; values are emitted as JSON strings. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Accumulates finished spans and serializes them as Chrome trace JSON.
 * All methods are thread-safe.
 */
class TraceCollector
{
  public:
    TraceCollector() = default;
    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    /** The process-wide collector (--trace-out enables this one). */
    static TraceCollector &global();

    /** Starts recording spans. */
    void enable() { enabled_.store(true, std::memory_order_relaxed); }

    /** Stops recording; already-recorded events are kept. */
    void disable() { enabled_.store(false, std::memory_order_relaxed); }

    /** Whether spans should record (the TraceSpan fast-path check). */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Appends one finished event (called by ~TraceSpan). */
    void record(TraceEvent event);

    /** Copies out every recorded event (slot order, not time order). */
    std::vector<TraceEvent> snapshot() const;

    /** Drops all recorded events (tests). */
    void clear();

    /** Serializes as `{"traceEvents": [...]}` with microsecond
     *  `ts`/`dur` fields, the Chrome trace_event JSON array format. */
    std::string toJson() const;

    /**
     * Writes toJson() to `path`; no-op on an empty path. @throws
     * util::IoError when the file cannot be written.
     */
    void writeTo(const std::string &path) const;

  private:
    static constexpr std::size_t kSlots = 16;

    struct alignas(64) Slot
    {
        mutable util::Mutex mutex;
        std::vector<TraceEvent> events DTRANK_GUARDED_BY(mutex);
    };

    std::atomic<bool> enabled_{false};
    std::array<Slot, kSlots> slots_;
};

/**
 * RAII scoped span. Records [construction, destruction) into a
 * TraceCollector when that collector is enabled; otherwise every
 * member is a no-op after one atomic load in the constructor.
 *
 * `name` and `category` must be string literals (or otherwise outlive
 * the span): the span keeps pointers and only copies on finish.
 */
class TraceSpan
{
  public:
    /**
     * @param collector Collector to record into; nullptr selects
     *     TraceCollector::global() (tests inject their own).
     */
    explicit TraceSpan(const char *name,
                       const char *category = "dtrank",
                       TraceCollector *collector = nullptr);

    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Whether this span will record (skip building expensive args). */
    bool active() const { return collector_ != nullptr; }

    /** Attaches a key/value to the span's `args` object. */
    void
    arg(const char *key, std::string value)
    {
        if (active())
            args_.emplace_back(key, std::move(value));
    }

    /** Numeric overload: stringifies only when the span records. */
    void
    arg(const char *key, std::uint64_t value)
    {
        if (active())
            args_.emplace_back(key, std::to_string(value));
    }

  private:
    TraceCollector *collector_ = nullptr; ///< nullptr when inactive.
    const char *name_;
    const char *category_;
    std::uint64_t startNanos_ = 0;
    std::vector<std::pair<std::string, std::string>> args_;
};

} // namespace dtrank::obs
