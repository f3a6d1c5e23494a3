/**
 * @file
 * The one place dtrank reads the monotonic clock.
 *
 * Every timing consumer — TraceSpan, the metrics histograms, the
 * BenchJsonWriter timing records, the thread pool's task timer — must
 * go through this shim instead of calling std::chrono::steady_clock
 * directly (static-analysis rule `no-raw-clock`; bench/ binaries are
 * exempt because google-benchmark owns their timing). Routing all
 * reads through one alias keeps trace timestamps, histogram
 * observations and bench records on a single time base, so a span in
 * a Perfetto view lines up with the JSON record that timed the same
 * section.
 *
 * The shim lives in util (the bottom of the module DAG) so that util
 * itself may time things.
 */

#pragma once

#include <chrono>
#include <cstdint>

namespace dtrank::util
{

/** The process-wide monotonic time base. */
using MonotonicClock = std::chrono::steady_clock;

/** Current monotonic time point. */
inline MonotonicClock::time_point
monotonicNow()
{
    return MonotonicClock::now();
}

/**
 * The process epoch: the monotonic time point of the first call.
 * Trace timestamps are expressed relative to it so trace files start
 * near zero instead of at an arbitrary boot-relative offset.
 */
inline MonotonicClock::time_point
processEpoch()
{
    static const MonotonicClock::time_point epoch = monotonicNow();
    return epoch;
}

/** Nanoseconds elapsed since the process epoch. */
inline std::uint64_t
monotonicNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            monotonicNow() - processEpoch())
            .count());
}

/** Seconds elapsed since `start` (histogram observation helper). */
inline double
secondsSince(MonotonicClock::time_point start)
{
    return std::chrono::duration<double>(monotonicNow() - start).count();
}

} // namespace dtrank::util
