#include "spans.hpp"

#include "util/json.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <stdexcept>

namespace gfi::perfbench {

int SpanLog::open(std::string name, std::string layer)
{
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.startUs = micros(Clock::now());
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void SpanLog::close(int id)
{
    if (open_.empty() || open_.back() != id) {
        throw std::logic_error("SpanLog: spans must close innermost first");
    }
    spans_[static_cast<std::size_t>(id)].endUs = micros(Clock::now());
    open_.pop_back();
}

void SpanLog::importRunnerTrace(const std::string& traceJson, Clock::time_point writerEpoch,
                                int parent, const std::map<std::string, std::string>& layerOf)
{
    const double offsetUs = micros(writerEpoch);
    const util::JsonValue doc = util::parseJson(traceJson);
    const util::JsonValue* events = doc.find("traceEvents");
    if (events == nullptr) {
        return;
    }
    // Runner tracks are renumbered after the benchmark's own (track 0).
    std::map<int, std::vector<Span>> byTrack;
    for (const util::JsonValue& e : events->asArray()) {
        const util::JsonValue* ph = e.find("ph");
        if (ph == nullptr || ph->asString() != "X") {
            continue;
        }
        Span s;
        s.name = e.find("name")->asString();
        // "run #17" -> "run": one layer entry for every per-fault span.
        const std::string key = s.name.rfind("run #", 0) == 0 ? "run" : s.name;
        const auto it = layerOf.find(key);
        s.layer = it != layerOf.end() ? it->second : "other";
        s.startUs = offsetUs + e.find("ts")->asNumber();
        s.endUs = s.startUs + e.find("dur")->asNumber();
        byTrack[static_cast<int>(e.find("tid")->asNumber())].push_back(std::move(s));
    }
    for (auto& [tid, list] : byTrack) {
        // Outer spans first at equal start, so a stack recovers nesting.
        std::sort(list.begin(), list.end(), [](const Span& a, const Span& b) {
            return a.startUs != b.startUs ? a.startUs < b.startUs : a.endUs > b.endUs;
        });
        const int track = nextTrack_++;
        std::vector<int> stack;
        for (Span& s : list) {
            while (!stack.empty() &&
                   spans_[static_cast<std::size_t>(stack.back())].endUs <= s.startUs) {
                stack.pop_back();
            }
            s.parent = stack.empty() ? parent : stack.back();
            s.track = track;
            spans_.push_back(std::move(s));
            stack.push_back(static_cast<int>(spans_.size()) - 1);
        }
    }
}

std::vector<double> SpanLog::durationsMs(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) {
            out.push_back((s.endUs - s.startUs) / 1e3);
        }
    }
    return out;
}

double SpanLog::totalSeconds(const std::string& name) const
{
    double total = 0.0;
    for (const double ms : durationsMs(name)) {
        total += ms / 1e3;
    }
    return total;
}

std::map<std::string, double> SpanLog::selfSeconds() const
{
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.startUs, s.endUs);
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Children on parallel worker tracks overlap: subtract their union.
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.startUs;
        for (const auto& [a, b] : kids) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.endUs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[s.layer] += std::max(0.0, s.endUs - s.startUs - covered) / 1e6;
    }
    return self;
}

std::string SpanLog::json(const std::string& metaJson) const
{
    std::string out = "{\"meta\": " + metaJson + ",\n \"self_time_s\": {";
    bool first = true;
    for (const auto& [layer, seconds] : selfSeconds()) {
        out += std::string(first ? "" : ", ") + "\"" + layer + "\": " + formatDouble(seconds, 9);
        first = false;
    }
    out += "},\n \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out += "  {\"id\": " + std::to_string(i) + ", \"name\": \"" + s.name +
               "\", \"layer\": \"" + s.layer + "\", \"track\": " + std::to_string(s.track) +
               ", \"start_us\": " + formatDouble(s.startUs, 9) +
               ", \"end_us\": " + formatDouble(s.endUs, 9) +
               ", \"parent\": " + std::to_string(s.parent) + "}";
        out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += " ]}\n";
    return out;
}

} // namespace gfi::perfbench
