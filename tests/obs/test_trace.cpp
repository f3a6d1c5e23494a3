/**
 * @file
 * Tests for the trace span layer: the disabled fast path records
 * nothing, enabled spans capture name/category/duration/args, events
 * survive concurrent recording from pool workers, and the Chrome
 * trace_event JSON rendering is structurally sound.
 */

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace
{

using namespace dtrank;

TEST(ObsTrace, DisabledCollectorRecordsNothing)
{
    obs::TraceCollector collector;
    {
        obs::TraceSpan span("noop", "test", &collector);
        EXPECT_FALSE(span.active());
        span.arg("ignored", std::string("value"));
    }
    EXPECT_EQ(collector.snapshot().size(), 0u);
}

TEST(ObsTrace, EnabledSpanRecordsNameCategoryAndArgs)
{
    obs::TraceCollector collector;
    collector.enable();
    {
        obs::TraceSpan span("unit_span", "test", &collector);
        EXPECT_TRUE(span.active());
        span.arg("rows", std::uint64_t{42});
        span.arg("mode", std::string("fast"));
    }
    collector.disable();

    const std::vector<obs::TraceEvent> events = collector.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "unit_span");
    EXPECT_EQ(events[0].category, "test");
    ASSERT_EQ(events[0].args.size(), 2u);
    EXPECT_EQ(events[0].args[0].first, "rows");
    EXPECT_EQ(events[0].args[0].second, "42");
    EXPECT_EQ(events[0].args[1].first, "mode");
    EXPECT_EQ(events[0].args[1].second, "fast");
}

TEST(ObsTrace, SpansStartedBeforeDisableStillRecord)
{
    // A span snapshots the collector state at construction; flipping
    // the switch mid-span must not tear the event.
    obs::TraceCollector collector;
    collector.enable();
    {
        obs::TraceSpan span("late", "test", &collector);
        collector.disable();
    }
    EXPECT_EQ(collector.snapshot().size(), 1u);
}

TEST(ObsTrace, ConcurrentSpansFromPoolWorkersAllArrive)
{
    obs::TraceCollector collector;
    collector.enable();
    {
        util::ThreadPool pool(8);
        std::vector<std::future<void>> done;
        for (int i = 0; i < 64; ++i)
            done.push_back(pool.submit([&collector] {
                obs::TraceSpan span("worker_span", "test", &collector);
            }));
        for (auto &f : done)
            f.get();
    }
    collector.disable();
    EXPECT_EQ(collector.snapshot().size(), 64u);
}

TEST(ObsTrace, ClearDropsBufferedEvents)
{
    obs::TraceCollector collector;
    collector.enable();
    {
        obs::TraceSpan span("gone", "test", &collector);
    }
    ASSERT_EQ(collector.snapshot().size(), 1u);
    collector.clear();
    EXPECT_EQ(collector.snapshot().size(), 0u);
}

TEST(ObsTrace, ToJsonEmitsCompleteEventsWithMicrosecondUnits)
{
    obs::TraceCollector collector;
    obs::TraceEvent event;
    event.name = "quoted \"name\"";
    event.category = "test";
    event.startNanos = 2500;
    event.durationNanos = 1500;
    event.tid = 3;
    event.args.emplace_back("k", "v");
    collector.record(event);

    const std::string json = collector.toJson();
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"quoted \\\"name\\\"\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 2.5"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 1.5"), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"k\": \"v\"}"), std::string::npos);
}

TEST(ObsTrace, EmptyCollectorStillRendersAValidDocument)
{
    obs::TraceCollector collector;
    EXPECT_EQ(collector.toJson(), "{\"traceEvents\": [\n]}\n");
}

} // namespace
