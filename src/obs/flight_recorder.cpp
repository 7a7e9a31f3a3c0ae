#include "obs/flight_recorder.hpp"

#include "util/file.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace gfi::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1))
{
}

std::size_t FlightRecorder::size() const noexcept
{
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
}

void FlightRecorder::clear() noexcept
{
    head_ = 0;
    total_ = 0;
}

std::vector<FlightRecorder::Event> FlightRecorder::window() const
{
    const std::size_t n = size();
    std::vector<Event> out;
    out.reserve(n);
    // Oldest slot: head_ when the ring has wrapped, 0 otherwise.
    const std::size_t start = total_ > ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

const FlightRecorder::Event* FlightRecorder::lastOfKind(Kind kind) const
{
    const std::size_t n = size();
    const std::size_t start = total_ > ring_.size() ? head_ : 0;
    for (std::size_t i = n; i > 0; --i) {
        const Event& e = ring_[(start + i - 1) % ring_.size()];
        if (e.kind == kind) {
            return &e;
        }
    }
    return nullptr;
}

const char* FlightRecorder::kindName(Kind kind)
{
    switch (kind) {
    case Kind::Wave:
        return "wave";
    case Kind::SolverAccept:
        return "solver-accept";
    case Kind::SolverReject:
        return "solver-reject";
    case Kind::AtoD:
        return "atod";
    case Kind::DtoA:
        return "dtoa";
    case Kind::Restore:
        return "restore";
    }
    return "?";
}

namespace {

/// Kind-specific payload keys, appended after the common prefix.
std::string payloadJson(const FlightRecorder::Event& e)
{
    using Kind = FlightRecorder::Kind;
    switch (e.kind) {
    case Kind::Wave:
        return ", \"waves\": " + std::to_string(e.a) +
               ", \"pending_events\": " + std::to_string(e.b);
    case Kind::SolverAccept:
        return ", \"accepted_steps\": " + std::to_string(e.a) +
               ", \"dt_s\": " + formatDouble(e.value, 12);
    case Kind::SolverReject:
        return ", \"rejected_steps\": " + std::to_string(e.a) +
               ", \"dt_s\": " + formatDouble(e.value, 12);
    case Kind::AtoD:
        return ", \"crossings\": " + std::to_string(e.a) +
               ", \"rising\": " + (e.value != 0.0 ? std::string("true") : std::string("false"));
    case Kind::DtoA:
        return ", \"updates\": " + std::to_string(e.a) +
               ", \"level_v\": " + formatDouble(e.value, 9);
    case Kind::Restore:
        return "";
    }
    return "";
}

/// Simulated-time timestamp in microseconds for the Chrome trace: the analog
/// clock when the event came from the analog domain, the digital clock
/// otherwise.
std::string simMicros(const FlightRecorder::Event& e)
{
    using Kind = FlightRecorder::Kind;
    const bool analog = e.kind == Kind::SolverAccept || e.kind == Kind::SolverReject;
    const double us = analog ? e.analogTime * 1e6 : toSeconds(e.timeFs) * 1e6;
    return formatDouble(us, 9);
}

/// Chrome-trace track per kernel domain, so the forensic window renders as
/// one lane each for scheduler, solver and bridges.
int trackOf(FlightRecorder::Kind kind)
{
    using Kind = FlightRecorder::Kind;
    switch (kind) {
    case Kind::Wave:
        return 1;
    case Kind::SolverAccept:
    case Kind::SolverReject:
        return 2;
    case Kind::AtoD:
    case Kind::DtoA:
        return 3;
    case Kind::Restore:
        return 0;
    }
    return 0;
}

} // namespace

std::string FlightRecorder::jsonl() const
{
    std::string out;
    std::size_t seq = 0;
    for (const Event& e : window()) {
        out += "{\"seq\": " + std::to_string(seq++) + ", \"kind\": \"" + kindName(e.kind) +
               "\", \"t_fs\": " + std::to_string(e.timeFs) +
               ", \"t_analog_s\": " + formatDouble(e.analogTime, 12) + payloadJson(e) + "}\n";
    }
    return out;
}

std::string FlightRecorder::chromeTraceJson() const
{
    std::vector<std::string> entries;
    // Track-name metadata first, one lane per kernel domain.
    const std::pair<int, const char*> tracks[] = {
        {0, "simulator"}, {1, "digital scheduler"}, {2, "analog solver"}, {3, "ams bridges"}};
    for (const auto& [tid, name] : tracks) {
        entries.push_back("{\"pid\": 1, \"tid\": " + std::to_string(tid) +
                          ", \"ph\": \"M\", \"name\": \"thread_name\", \"args\": "
                          "{\"name\": \"" +
                          std::string(name) + "\"}}");
    }
    for (const Event& e : window()) {
        entries.push_back("{\"pid\": 1, \"tid\": " + std::to_string(trackOf(e.kind)) +
                          ", \"ph\": \"i\", \"s\": \"t\", \"name\": \"" + kindName(e.kind) +
                          "\", \"cat\": \"kernel\", \"ts\": " + simMicros(e) +
                          ", \"args\": {\"t_fs\": " + std::to_string(e.timeFs) +
                          payloadJson(e) + "}}");
    }
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        out += "  " + entries[i] + (i + 1 < entries.size() ? ",\n" : "\n");
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

void FlightRecorder::writeArtifacts(const std::string& stem) const
{
    const std::filesystem::path parent = std::filesystem::path(stem).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            throw std::runtime_error("FlightRecorder: cannot create " + parent.string() +
                                     ": " + ec.message());
        }
    }
    util::writeFileOrThrow(stem + ".jsonl", jsonl(), "FlightRecorder");
    util::writeFileOrThrow(stem + ".trace.json", chromeTraceJson(), "FlightRecorder");
}

} // namespace gfi::obs
