#include "obs/trace_writer.hpp"

#include "util/file.hpp"
#include "util/json.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>

namespace gfi::obs {

namespace {

/// Microseconds on the nanosecond grid: the nearest whole nanosecond.
long long toNanos(double us)
{
    return std::llround(us * 1000.0);
}

/// @p ns as microseconds in fixed point with 3 decimals, exact at any
/// magnitude: a significant-digit format would print an 11,888 µs span as
/// 1.19e+04 and let adjacent spans overlap.
std::string renderMicros(long long ns)
{
    const long long mag = ns < 0 ? -ns : ns;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%lld.%03lld", ns < 0 ? "-" : "", mag / 1000, mag % 1000);
    return buf;
}

} // namespace

int TraceWriter::currentTrackId()
{
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void TraceWriter::push(Event e)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(e));
}

void TraceWriter::completeEvent(const std::string& name, const std::string& category,
                                double startUs, double durationUs, const std::string& args)
{
    push(Event{'X', currentTrackId(), startUs, durationUs, name, category, args});
}

void TraceWriter::instantEvent(const std::string& name, const std::string& category,
                               const std::string& args)
{
    push(Event{'i', currentTrackId(), nowMicros(), 0.0, name, category, args});
}

void TraceWriter::nameCurrentTrack(const std::string& name)
{
    const int tid = currentTrackId();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (int named : namedTracks_) {
        if (named == tid) {
            return;
        }
    }
    namedTracks_.push_back(tid);
    events_.push_back(Event{'M', tid, 0.0, 0.0, name, {}, {}});
}

std::size_t TraceWriter::eventCount() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::string TraceWriter::json() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        out += "  {\"pid\": 1, \"tid\": " + std::to_string(e.tid) + ", ";
        if (e.phase == 'M') {
            out += "\"ph\": \"M\", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
                   util::jsonEscape(e.name) + "\"}";
        } else {
            out += "\"ph\": \"" + std::string(1, e.phase) + "\", \"name\": \"" +
                   util::jsonEscape(e.name) + "\", \"cat\": \"" + util::jsonEscape(e.category) +
                   "\", \"ts\": " + renderMicros(toNanos(e.tsUs));
            if (e.phase == 'X') {
                // The end is rounded, not the duration, so a span that ends
                // before another starts still does once both are rounded.
                out += ", \"dur\": " +
                       renderMicros(toNanos(e.tsUs + e.durUs) - toNanos(e.tsUs));
            }
            if (e.phase == 'i') {
                out += ", \"s\": \"t\"";
            }
            if (!e.args.empty()) {
                out += ", \"args\": " + e.args;
            }
        }
        out += "}";
        out += i + 1 < events_.size() ? ",\n" : "\n";
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

void TraceWriter::writeFile(const std::string& path) const
{
    util::writeFileOrThrow(path, json(), "TraceWriter");
}

} // namespace gfi::obs
