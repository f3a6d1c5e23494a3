#include "obs/trace.h"

#include <fstream>
#include <sstream>

#include "util/clock.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dtrank::obs
{

namespace
{

/** JSON string escaping for event names, categories and arg values. */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

} // namespace

TraceCollector &
TraceCollector::global()
{
    // Internally synchronized (per-thread buffers + mutex):
    // dtrank-analyze-ignore(no-unguarded-static)
    static TraceCollector collector;
    return collector;
}

void
TraceCollector::record(TraceEvent event)
{
    Slot &slot = slots_[event.tid % kSlots];
    util::LockGuard lock(slot.mutex);
    slot.events.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceCollector::snapshot() const
{
    std::vector<TraceEvent> out;
    for (const Slot &slot : slots_) {
        util::LockGuard lock(slot.mutex);
        out.insert(out.end(), slot.events.begin(), slot.events.end());
    }
    return out;
}

void
TraceCollector::clear()
{
    for (Slot &slot : slots_) {
        util::LockGuard lock(slot.mutex);
        slot.events.clear();
    }
}

std::string
TraceCollector::toJson() const
{
    const std::vector<TraceEvent> events = snapshot();
    std::ostringstream out;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &event = events[i];
        // Complete events ("ph": "X") with microsecond timestamps, the
        // unit the trace_event format specifies.
        out << "  {\"name\": \"" << escapeJson(event.name)
            << "\", \"cat\": \"" << escapeJson(event.category)
            << "\", \"ph\": \"X\", \"ts\": "
            << static_cast<double>(event.startNanos) / 1000.0
            << ", \"dur\": "
            << static_cast<double>(event.durationNanos) / 1000.0
            << ", \"pid\": 1, \"tid\": " << event.tid;
        if (!event.args.empty()) {
            out << ", \"args\": {";
            for (std::size_t a = 0; a < event.args.size(); ++a) {
                const auto &[key, value] = event.args[a];
                out << (a > 0 ? ", " : "") << "\"" << escapeJson(key)
                    << "\": \"" << escapeJson(value) << "\"";
            }
            out << "}";
        }
        out << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return out.str();
}

void
TraceCollector::writeTo(const std::string &path) const
{
    if (path.empty())
        return;
    std::ofstream file(path);
    if (!file)
        throw util::IoError("TraceCollector: cannot open '" + path +
                            "' for writing");
    file << toJson();
    if (!file)
        throw util::IoError("TraceCollector: failed writing '" + path +
                            "'");
}

TraceSpan::TraceSpan(const char *name, const char *category,
                     TraceCollector *collector)
    : name_(name), category_(category)
{
    TraceCollector &target =
        collector != nullptr ? *collector : TraceCollector::global();
    if (!target.enabled())
        return; // one relaxed load: the disabled fast path
    collector_ = &target;
    startNanos_ = util::monotonicNanos();
}

TraceSpan::~TraceSpan()
{
    if (!active())
        return;
    TraceEvent event;
    event.name = name_;
    event.category = category_;
    event.startNanos = startNanos_;
    const std::uint64_t end = util::monotonicNanos();
    event.durationNanos = end > startNanos_ ? end - startNanos_ : 0;
    event.tid = util::ThreadPool::workerSlot();
    event.args = std::move(args_);
    collector_->record(std::move(event));
}

} // namespace dtrank::obs
