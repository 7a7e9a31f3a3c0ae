#include "trace/trace.hpp"

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

void Recorder::preloadPrefix(const Recorder& golden, SimTime tDigital, double tAnalog)
{
    for (auto& [name, tr] : digital_) {
        const auto it = golden.digital_.find(name);
        if (it == golden.digital_.end()) {
            throw std::logic_error("Recorder::preloadPrefix: golden run did not record '" +
                                   name + "'");
        }
        const DigitalTrace& g = it->second;
        tr.initial = g.initial;
        tr.events.clear();
        for (const auto& ev : g.events) {
            if (ev.first > tDigital) {
                break;
            }
            tr.events.push_back(ev);
        }
    }
    for (auto& [name, tr] : analog_) {
        const auto it = golden.analog_.find(name);
        if (it == golden.analog_.end()) {
            throw std::logic_error("Recorder::preloadPrefix: golden run did not record '" +
                                   name + "'");
        }
        const AnalogTrace& g = it->second;
        tr.samples.clear();
        for (const auto& sample : g.samples) {
            if (sample.first > tAnalog) {
                break;
            }
            tr.samples.push_back(sample);
        }
    }
}

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
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        throw std::runtime_error("writeAnalogCsv: cannot open " + path);
    }
    std::fputs("time_s", f);
    for (const AnalogTrace* tr : traces) {
        std::fprintf(f, ",%s", tr->name.c_str());
    }
    std::fputc('\n', f);

    // Union of all sample times.
    std::vector<double> times;
    for (const AnalogTrace* tr : traces) {
        for (const auto& [t, v] : tr->samples) {
            times.push_back(t);
        }
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    for (double t : times) {
        std::fprintf(f, "%.12g", t);
        for (const AnalogTrace* tr : traces) {
            std::fprintf(f, ",%.9g", tr->valueAt(t));
        }
        std::fputc('\n', f);
    }
    std::fclose(f);
}

void writeVcd(const std::string& path, const std::vector<const DigitalTrace*>& digitalTraces,
              const std::vector<const AnalogTrace*>& analogTraces)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        throw std::runtime_error("writeVcd: cannot open " + path);
    }
    std::fputs("$timescale 1fs $end\n$scope module gfi $end\n", f);
    char id = '!';
    std::vector<char> digIds;
    for (const DigitalTrace* tr : digitalTraces) {
        std::fprintf(f, "$var wire 1 %c %s $end\n", id, tr->name.c_str());
        digIds.push_back(id++);
    }
    std::vector<char> anaIds;
    for (const AnalogTrace* tr : analogTraces) {
        std::fprintf(f, "$var real 64 %c %s $end\n", id, tr->name.c_str());
        anaIds.push_back(id++);
    }
    std::fputs("$upscope $end\n$enddefinitions $end\n", f);

    // Merge all change times.
    struct Change {
        SimTime t;
        std::string text;
    };
    std::vector<Change> changes;
    for (std::size_t i = 0; i < digitalTraces.size(); ++i) {
        const char c = digIds[i];
        changes.push_back({0, std::string(1, digital::toChar(digitalTraces[i]->initial)) +
                                  std::string(1, c)});
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
            changes.push_back({t, std::string(1, ch) + std::string(1, c)});
        }
    }
    for (std::size_t i = 0; i < analogTraces.size(); ++i) {
        const char c = anaIds[i];
        for (const auto& [t, v] : analogTraces[i]->samples) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "r%.9g %c", v, c);
            changes.push_back({fromSeconds(t), buf});
        }
    }
    std::stable_sort(changes.begin(), changes.end(),
                     [](const Change& a, const Change& b) { return a.t < b.t; });

    SimTime last = -1;
    for (const Change& ch : changes) {
        if (ch.t != last) {
            std::fprintf(f, "#%lld\n", static_cast<long long>(ch.t));
            last = ch.t;
        }
        std::fprintf(f, "%s\n", ch.text.c_str());
    }
    std::fclose(f);
}

} // namespace gfi::trace
