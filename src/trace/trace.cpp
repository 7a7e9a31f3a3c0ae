#include "trace/trace.hpp"

#include "util/file.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace gfi::trace {

// ---------------------------------------------------------------------------
// DigitalTrace

digital::Logic DigitalTrace::valueAt(SimTime t) const
{
    digital::Logic v = initial;
    for (const auto& [time, value] : events) {
        if (time > t) {
            break;
        }
        v = value;
    }
    return v;
}

std::vector<SimTime> DigitalTrace::risingEdges() const
{
    std::vector<SimTime> edges;
    digital::Logic prev = digital::toX01(initial);
    for (const auto& [time, value] : events) {
        const digital::Logic now = digital::toX01(value);
        if (prev == digital::Logic::Zero && now == digital::Logic::One) {
            edges.push_back(time);
        }
        prev = now;
    }
    return edges;
}

// ---------------------------------------------------------------------------
// AnalogTrace

double AnalogTrace::valueAt(double t) const
{
    if (samples.empty()) {
        return 0.0;
    }
    if (t <= samples.front().first) {
        return samples.front().second;
    }
    if (t >= samples.back().first) {
        return samples.back().second;
    }
    // Binary search for the interval containing t.
    const auto it = std::lower_bound(
        samples.begin(), samples.end(), t,
        [](const std::pair<double, double>& s, double time) { return s.first < time; });
    const auto& [t1, v1] = *it;
    const auto& [t0, v0] = *(it - 1);
    if (t1 <= t0) {
        return v1;
    }
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

std::pair<double, double> AnalogTrace::minmax(double t0, double t1) const
{
    double lo = 1e300;
    double hi = -1e300;
    for (const auto& [t, v] : samples) {
        if (t < t0 || t > t1) {
            continue;
        }
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    if (lo > hi) {
        return {0.0, 0.0};
    }
    return {lo, hi};
}

// ---------------------------------------------------------------------------
// Recorder

void Recorder::reset()
{
    for (auto& [tr, initial] : constructionInitial_) {
        tr->initial = initial;
        tr->events.clear();
    }
    for (auto& [name, tr] : analog_) {
        tr.samples.clear();
    }
}

void Recorder::recordDigital(const std::string& signalName)
{
    auto& sig = sim_->digital().findLogic(signalName);
    auto [it, inserted] = digital_.try_emplace(signalName);
    if (!inserted) {
        return; // already recorded
    }
    DigitalTrace& tr = it->second;
    tr.name = signalName;
    tr.initial = sig.value();
    constructionInitial_.emplace_back(&tr, tr.initial);
    digital::SignalWatch::onEvent(sig, [&tr, &sig, this] {
        tr.events.emplace_back(sim_->digital().scheduler().now(), sig.value());
    });
}

void Recorder::recordAnalog(const std::string& nodeName)
{
    auto [it, inserted] = analog_.try_emplace(nodeName);
    if (!inserted) {
        return;
    }
    AnalogTrace& tr = it->second;
    tr.name = nodeName;
    const analog::NodeId node = sim_->analog().node(nodeName);
    auto* sim = sim_;
    sim_->onElaborate([&tr, node, sim](analog::TransientSolver& solver) {
        tr.samples.emplace_back(solver.time(), sim->analog().voltage(node));
        solver.onAccept(
            [&tr, node, sim](double t) { tr.samples.emplace_back(t, sim->analog().voltage(node)); });
    });
}

void Recorder::appendSuffix(const Recorder& golden, SimTime after)
{
    for (auto& [name, tr] : digital_) {
        const auto& g = golden.digitalTrace(name).events;
        const auto from = std::upper_bound(
            g.begin(), g.end(), after, [](SimTime t, const auto& ev) { return t < ev.first; });
        tr.events.insert(tr.events.end(), from, g.end());
    }
    const double afterSeconds = toSeconds(after);
    for (auto& [name, tr] : analog_) {
        const auto& g = golden.analogTrace(name).samples;
        const auto from = std::upper_bound(
            g.begin(), g.end(), afterSeconds,
            [](double t, const auto& sample) { return t < sample.first; });
        tr.samples.insert(tr.samples.end(), from, g.end());
    }
}

const DigitalTrace& Recorder::digitalTrace(const std::string& name) const
{
    const auto it = digital_.find(name);
    if (it == digital_.end()) {
        throw std::out_of_range("Recorder: digital trace '" + name + "' not recorded");
    }
    return it->second;
}

const AnalogTrace& Recorder::analogTrace(const std::string& name) const
{
    const auto it = analog_.find(name);
    if (it == analog_.end()) {
        throw std::out_of_range("Recorder: analog trace '" + name + "' not recorded");
    }
    return it->second;
}

// ---------------------------------------------------------------------------
// Writers

void writeAnalogCsv(const std::string& path, const std::vector<const AnalogTrace*>& traces)
{
    std::string out = "time_s";
    for (const AnalogTrace* tr : traces) {
        out += ',';
        out += tr->name;
    }
    out += '\n';

    // Union of all sample times.
    std::vector<double> times;
    for (const AnalogTrace* tr : traces) {
        for (const auto& [t, v] : tr->samples) {
            times.push_back(t);
        }
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    char buf[64];
    for (double t : times) {
        std::snprintf(buf, sizeof buf, "%.12g", t);
        out += buf;
        for (const AnalogTrace* tr : traces) {
            std::snprintf(buf, sizeof buf, ",%.9g", tr->valueAt(t));
            out += buf;
        }
        out += '\n';
    }
    util::writeFileOrThrow(path, out, "writeAnalogCsv");
}

namespace {

/// The VCD identifier code of the @p index-th variable.
std::string vcdIdentifier(std::size_t index)
{
    // Bijective base 94 over the printable codes '!'..'~', least significant
    // character first: 0..93 get one character, the next 94^2 two, and so on.
    constexpr std::size_t kBase = '~' - '!' + 1;
    std::string id;
    for (;;) {
        id += static_cast<char>('!' + index % kBase);
        index /= kBase;
        if (index == 0) {
            return id;
        }
        --index;
    }
}

} // namespace

void writeVcd(const std::string& path, const std::vector<const DigitalTrace*>& digitalTraces,
              const std::vector<const AnalogTrace*>& analogTraces)
{
    std::string out = "$timescale 1fs $end\n$scope module gfi $end\n";
    std::size_t next = 0;
    std::vector<std::string> digIds;
    for (const DigitalTrace* tr : digitalTraces) {
        digIds.push_back(vcdIdentifier(next++));
        out += "$var wire 1 " + digIds.back() + ' ' + tr->name + " $end\n";
    }
    std::vector<std::string> anaIds;
    for (const AnalogTrace* tr : analogTraces) {
        anaIds.push_back(vcdIdentifier(next++));
        out += "$var real 64 " + anaIds.back() + ' ' + tr->name + " $end\n";
    }
    out += "$upscope $end\n$enddefinitions $end\n";

    // Merge all change times.
    struct Change {
        SimTime t;
        std::string text;
    };
    std::vector<Change> changes;
    for (std::size_t i = 0; i < digitalTraces.size(); ++i) {
        const std::string& id = digIds[i];
        changes.push_back({0, digital::toChar(digitalTraces[i]->initial) + id});
        for (const auto& [t, v] : digitalTraces[i]->events) {
            char ch = digital::toChar(v);
            if (ch == 'U' || ch == 'W' || ch == '-') {
                ch = 'x';
            }
            if (ch == 'L') {
                ch = '0';
            }
            if (ch == 'H') {
                ch = '1';
            }
            if (ch == 'X') {
                ch = 'x';
            }
            if (ch == 'Z') {
                ch = 'z';
            }
            changes.push_back({t, ch + id});
        }
    }
    for (std::size_t i = 0; i < analogTraces.size(); ++i) {
        const std::string& id = anaIds[i];
        for (const auto& [t, v] : analogTraces[i]->samples) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "r%.9g ", v);
            changes.push_back({fromSeconds(t), buf + id});
        }
    }
    std::stable_sort(changes.begin(), changes.end(),
                     [](const Change& a, const Change& b) { return a.t < b.t; });

    SimTime last = -1;
    for (const Change& ch : changes) {
        if (ch.t != last) {
            out += '#' + std::to_string(static_cast<long long>(ch.t)) + '\n';
            last = ch.t;
        }
        out += ch.text;
        out += '\n';
    }
    util::writeFileOrThrow(path, out, "writeVcd");
}

} // namespace gfi::trace
