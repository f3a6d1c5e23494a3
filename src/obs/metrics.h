/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * fixed-bucket latency histograms, sharded per thread.
 *
 * Design constraints, in order:
 *
 *  1. Determinism. Metrics are compiled in unconditionally, so they
 *     must never feed back into computation: primitives only
 *     accumulate into atomics, and nothing reads them on the hot path.
 *     With the registry unscraped, every protocol output is
 *     bit-identical to a build that never increments a metric.
 *  2. Low overhead. The hot path (Counter::inc, Gauge::add,
 *     Histogram::observe) is lock-free: each primitive owns a small
 *     array of cache-line-padded atomic slots indexed by the
 *     ThreadPool worker slot of the calling thread, so concurrent
 *     workers update disjoint cache lines. Slots are merged only on
 *     scrape.
 *  3. One registry. Named metrics live in MetricsRegistry::global()
 *     and are exported as Prometheus text or as
 *     util::BenchJsonWriter-compatible records (--metrics-out).
 *     Primitives are also usable standalone (value members) for
 *     per-instance accounting.
 *
 * The registration path (MetricsRegistry::counter and friends) takes a
 * mutex and is intended for cold code: call it once and keep the
 * returned reference (handles are stable for the registry's lifetime).
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dtrank::util
{
class BenchJsonWriter;
} // namespace dtrank::util

namespace dtrank::obs
{

/**
 * Slots per primitive. Threads hash onto slots by ThreadPool worker
 * slot modulo this count; a collision only costs cache-line sharing,
 * never correctness.
 */
inline constexpr std::size_t kMetricSlots = 16;

/** The metric slot of the calling thread. */
inline std::size_t
metricSlot()
{
    return util::ThreadPool::workerSlot() % kMetricSlots;
}

/** Monotone event counter (Prometheus `counter`). */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    /** Lock-free; safe from any thread. */
    void
    inc(std::uint64_t by = 1)
    {
        slots_[metricSlot()].n.fetch_add(by, std::memory_order_relaxed);
    }

    /** Merged value across all thread slots (scrape path). */
    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Slot &slot : slots_)
            total += slot.n.load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> n{0};
    };

    std::array<Slot, kMetricSlots> slots_;
};

/** Up/down instantaneous value (Prometheus `gauge`), e.g. queue depth. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    /** Lock-free; negative deltas decrease the gauge. */
    void
    add(std::int64_t delta)
    {
        slots_[metricSlot()].n.fetch_add(delta,
                                         std::memory_order_relaxed);
    }

    /** Merged value across all thread slots (scrape path). */
    std::int64_t
    value() const
    {
        std::int64_t total = 0;
        for (const Slot &slot : slots_)
            total += slot.n.load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::int64_t> n{0};
    };

    std::array<Slot, kMetricSlots> slots_;
};

/**
 * Fixed-bucket histogram (Prometheus `histogram`). Buckets are chosen
 * at construction and never change; an observation lands in the first
 * bucket whose upper bound is >= the value (`le` semantics), or in the
 * implicit +Inf overflow bucket.
 */
class Histogram
{
  public:
    /** @param upper_bounds Finite bucket upper bounds, ascending. */
    explicit Histogram(std::vector<double> upper_bounds)
        : bounds_(std::move(upper_bounds)),
          stride_((bounds_.size() + 1 + 7) / 8 * 8),
          counts_(stride_ * kMetricSlots)
    {
        for (std::size_t i = 1; i < bounds_.size(); ++i)
            util::require(bounds_[i - 1] < bounds_[i],
                          "Histogram: bucket bounds must be strictly "
                          "ascending");
    }

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Lock-free; safe from any thread. */
    void
    observe(double value)
    {
        std::size_t bucket = bounds_.size(); // +Inf overflow
        for (std::size_t i = 0; i < bounds_.size(); ++i) {
            if (value <= bounds_[i]) {
                bucket = i;
                break;
            }
        }
        const std::size_t slot = metricSlot();
        counts_[slot * stride_ + bucket].fetch_add(
            1, std::memory_order_relaxed);
        // Relaxed CAS add: the sum is observability data, not a result
        // input, so the nondeterministic addition order is acceptable.
        std::atomic<double> &sum = sums_[slot].total;
        double current = sum.load(std::memory_order_relaxed);
        while (!sum.compare_exchange_weak(current, current + value,
                                          std::memory_order_relaxed)) {
        }
    }

    /** Finite bucket upper bounds (excludes the +Inf bucket). */
    const std::vector<double> &upperBounds() const { return bounds_; }

    /** Buckets including the +Inf overflow bucket. */
    std::size_t bucketCount() const { return bounds_.size() + 1; }

    /** Merged (non-cumulative) count of bucket `b` (scrape path). */
    std::uint64_t
    bucketValue(std::size_t b) const
    {
        std::uint64_t total = 0;
        for (std::size_t slot = 0; slot < kMetricSlots; ++slot)
            total += counts_[slot * stride_ + b].load(
                std::memory_order_relaxed);
        return total;
    }

    /** Total observations (scrape path). */
    std::uint64_t
    count() const
    {
        std::uint64_t total = 0;
        for (std::size_t b = 0; b < bucketCount(); ++b)
            total += bucketValue(b);
        return total;
    }

    /**
     * Estimated q-quantile (q in [0, 1]) from the merged bucket
     * counts: the upper bound of the first bucket whose cumulative
     * count covers q * count(), the standard Prometheus
     * histogram_quantile estimate rounded up to a bucket boundary.
     * Observations in the +Inf overflow bucket report the largest
     * finite bound. Returns 0 on an empty histogram. Scrape path only
     * (merges every thread slot); the serve SLO reporting reads p99
     * through this.
     */
    double
    quantile(double q) const
    {
        util::require(q >= 0.0 && q <= 1.0,
                      "Histogram::quantile: q must be in [0, 1]");
        const std::uint64_t total = count();
        if (total == 0 || bounds_.empty())
            return 0.0;
        const double rank = q * static_cast<double>(total);
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < bounds_.size(); ++b) {
            cumulative += bucketValue(b);
            if (static_cast<double>(cumulative) >= rank)
                return bounds_[b];
        }
        return bounds_.back();
    }

    /** Sum of all observed values (scrape path). */
    double
    sum() const
    {
        double total = 0.0;
        for (const SumSlot &slot : sums_)
            total += slot.total.load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(64) SumSlot
    {
        std::atomic<double> total{0.0};
    };

    std::vector<double> bounds_;
    std::size_t stride_; ///< Per-slot spacing in counts_, padded so
                         ///< two slots never share a cache line.
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::array<SumSlot, kMetricSlots> sums_;
};

/** Default latency buckets: 1us .. 10s, one decade per bucket. */
inline std::vector<double>
defaultLatencyBounds()
{
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

/**
 * Named metric registry. Names follow Prometheus conventions:
 * counters end in `_total`, and a name may carry a label set
 * (`dtrank_serve_responses_total{status="ok"}`) that the text exporter
 * groups under one metric family.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry (--metrics-out scrapes this one). */
    static MetricsRegistry &
    global()
    {
        // Internally synchronized (sharded mutexes):
        // dtrank-analyze-ignore(no-unguarded-static)
        static MetricsRegistry registry;
        return registry;
    }

    /**
     * Returns the counter registered under `name`, creating it on
     * first use. Handles are stable; cache the reference, do not
     * re-lookup on the hot path. @throws util::InvalidArgument when
     * the name is already registered as a different metric kind.
     */
    Counter &
    counter(const std::string &name, const std::string &help = "")
    {
        Entry &entry = findOrCreate(name, help, Kind::Counter);
        return *entry.counter;
    }

    /** Gauge analogue of counter(). */
    Gauge &
    gauge(const std::string &name, const std::string &help = "")
    {
        Entry &entry = findOrCreate(name, help, Kind::Gauge);
        return *entry.gauge;
    }

    /**
     * Histogram analogue of counter(). The bounds are fixed by the
     * first registration; later lookups ignore the parameter.
     */
    Histogram &
    histogram(const std::string &name, std::vector<double> upper_bounds,
              const std::string &help = "")
    {
        util::LockGuard lock(mutex_);
        for (const auto &entry : entries_) {
            if (entry->name != name)
                continue;
            util::require(entry->kind == Kind::Histogram,
                          "MetricsRegistry: name registered as a "
                          "different metric kind");
            return *entry->histogram;
        }
        auto entry = std::make_unique<Entry>();
        entry->name = name;
        entry->help = help;
        entry->kind = Kind::Histogram;
        entry->histogram =
            std::make_unique<Histogram>(std::move(upper_bounds));
        entries_.push_back(std::move(entry));
        return *entries_.back()->histogram;
    }

    /**
     * Renders every registered metric in the Prometheus text
     * exposition format (families sorted by name, HELP/TYPE once per
     * family, histograms with cumulative `le` buckets).
     */
    std::string scrapePrometheus() const;

    /**
     * Appends one BenchJsonWriter record per metric (name, type and
     * merged value in the record context), the JSON export surface.
     */
    void exportTo(util::BenchJsonWriter &json) const;

    /**
     * Writes the registry to `path`: the BenchJsonWriter document when
     * the path ends in ".json", Prometheus text otherwise. No-op on an
     * empty path. @throws util::IoError when the file cannot be
     * written.
     */
    void writeMetricsFile(const std::string &path) const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        std::string name;
        std::string help;
        Kind kind = Kind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &
    findOrCreate(const std::string &name, const std::string &help,
                 Kind kind)
    {
        util::LockGuard lock(mutex_);
        for (const auto &entry : entries_) {
            if (entry->name != name)
                continue;
            util::require(entry->kind == kind,
                          "MetricsRegistry: name registered as a "
                          "different metric kind");
            return *entry;
        }
        auto entry = std::make_unique<Entry>();
        entry->name = name;
        entry->help = help;
        entry->kind = kind;
        if (kind == Kind::Counter)
            entry->counter = std::make_unique<Counter>();
        else
            entry->gauge = std::make_unique<Gauge>();
        entries_.push_back(std::move(entry));
        return *entries_.back();
    }

    mutable util::Mutex mutex_;
    std::vector<std::unique_ptr<Entry>> entries_
        DTRANK_GUARDED_BY(mutex_);
};

} // namespace dtrank::obs
