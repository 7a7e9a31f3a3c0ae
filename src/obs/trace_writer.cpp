#include "obs/trace_writer.hpp"

#include "util/file.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

#include <atomic>

namespace gfi::obs {

namespace {

std::string renderMicros(double us)
{
    // Trace timestamps want sub-microsecond precision but not 17 digits.
    return formatDouble(us, 3);
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
                   "\", \"ts\": " + renderMicros(e.tsUs);
            if (e.phase == 'X') {
                out += ", \"dur\": " + renderMicros(e.durUs);
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
