#include "lint/digital_lint.hpp"

#include "analyze/scc.hpp"
#include "digital/circuit.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

namespace gfi::lint {

namespace {

using digital::Circuit;
using digital::ProcessConnectivity;
using digital::SignalBase;

std::string joinNames(const std::vector<std::string>& names)
{
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        out += (i == 0 ? "" : ", ") + names[i];
    }
    return out;
}

} // namespace

Report lintDigital(const Circuit& circuit)
{
    Report report;
    const std::vector<ProcessConnectivity>& conns = circuit.connectivity();

    // Per-signal driver / reader maps from the declared connectivity.
    std::map<SignalBase*, std::vector<const ProcessConnectivity*>> drivers;
    std::set<SignalBase*> readOrTriggered;
    std::set<SignalBase*> mentioned; // every signal the netlist knows about
    for (const ProcessConnectivity& c : conns) {
        for (SignalBase* s : c.drives) {
            drivers[s].push_back(&c);
            mentioned.insert(s);
        }
        for (SignalBase* s : c.triggers) {
            readOrTriggered.insert(s);
            mentioned.insert(s);
        }
        for (SignalBase* s : c.reads) {
            readOrTriggered.insert(s);
            mentioned.insert(s);
        }
    }
    for (SignalBase* s : circuit.externalDrivers()) {
        mentioned.insert(s);
    }

    // --- DIG001: combinational loops (Tarjan SCC) --------------------------
    // Vertices: combinational processes. Edge p -> q when p drives a signal
    // q is sensitive to. Sequential processes absorb the cycle at the clock
    // edge, so they are excluded — exactly why a registered feedback path is
    // legal and a gate loop is not.
    std::vector<const ProcessConnectivity*> comb;
    // Each signal's combinational listeners, one entry per process in
    // connectivity order (a process triggered twice by one signal is listed
    // once), so the adjacency is built in linear time.
    std::unordered_map<const SignalBase*, std::vector<int>> listeners;
    for (const ProcessConnectivity& c : conns) {
        if (c.sequential) {
            continue;
        }
        const int index = static_cast<int>(comb.size());
        comb.push_back(&c);
        for (SignalBase* s : c.triggers) {
            std::vector<int>& procs = listeners[s];
            if (procs.empty() || procs.back() != index) {
                procs.push_back(index);
            }
        }
    }
    const auto listenersOf = [&listeners](const SignalBase* s) -> const std::vector<int>& {
        static const std::vector<int> none;
        const auto it = listeners.find(s);
        return it == listeners.end() ? none : it->second;
    };
    std::vector<std::vector<int>> adj(comb.size());
    for (std::size_t p = 0; p < comb.size(); ++p) {
        for (SignalBase* s : comb[p]->drives) {
            const std::vector<int>& procs = listenersOf(s);
            adj[p].insert(adj[p].end(), procs.begin(), procs.end());
        }
    }
    for (const std::vector<int>& scc : analyze::tarjanScc(adj)) {
        if (!analyze::sccIsCyclic(scc, adj)) {
            continue;
        }
        const std::set<int> inScc(scc.begin(), scc.end());
        std::vector<std::string> procNames;
        std::vector<std::string> sigNames;
        for (const int v : scc) {
            const ProcessConnectivity* c = comb[static_cast<std::size_t>(v)];
            procNames.push_back(c->process->name());
            for (SignalBase* s : c->drives) {
                const std::vector<int>& procs = listenersOf(s);
                if (std::any_of(procs.begin(), procs.end(),
                                [&inScc](int w) { return inScc.count(w) != 0; }) &&
                    std::find(sigNames.begin(), sigNames.end(), s->name()) == sigNames.end()) {
                    sigNames.push_back(s->name());
                }
            }
        }
        std::sort(procNames.begin(), procNames.end());
        report.add("DIG001", Severity::Error, joinNames(procNames),
                   "combinational loop through signal(s) " + joinNames(sigNames) +
                       " — the delta-cycle engine will oscillate until "
                       "SchedulerLimitError",
                   "register the feedback path or break the zero-delay cycle");
    }

    // DIG002-DIG004 walk pointer-keyed containers; their rows are emitted in
    // signal-name order (names are unique within a circuit), so a report
    // reads the same whatever addresses the heap handed out.
    const auto byName = [](std::vector<SignalBase*> signals) {
        std::sort(signals.begin(), signals.end(),
                  [](const SignalBase* a, const SignalBase* b) { return a->name() < b->name(); });
        return signals;
    };

    // --- DIG002: multiple drivers on an unresolved signal ------------------
    std::vector<SignalBase*> multiDriven;
    for (const auto& [sig, procs] : drivers) {
        const int external = circuit.isExternallyDriven(*sig) ? 1 : 0;
        if (static_cast<int>(procs.size()) + external >= 2) {
            multiDriven.push_back(sig);
        }
    }
    for (SignalBase* sig : byName(std::move(multiDriven))) {
        std::vector<std::string> names;
        for (const ProcessConnectivity* c : drivers.at(sig)) {
            names.push_back(c->process->name());
        }
        if (circuit.isExternallyDriven(*sig)) {
            names.emplace_back("<external driver>");
        }
        std::sort(names.begin(), names.end());
        report.add("DIG002", Severity::Error, sig->name(),
                   "unresolved signal has " + std::to_string(names.size()) +
                       " drivers: " + joinNames(names),
                   "single-driver nets only: mux the sources or insert a resolved bus");
    }

    // --- DIG003: undriven inputs -------------------------------------------
    std::vector<SignalBase*> undriven;
    for (SignalBase* s : readOrTriggered) {
        if (drivers.count(s) == 0 && !circuit.isExternallyDriven(*s)) {
            undriven.push_back(s);
        }
    }
    for (SignalBase* s : byName(std::move(undriven))) {
        report.add("DIG003", Severity::Warning, s->name(),
                   "read by a process but never driven — it will hold its "
                   "initial value for the whole run",
                   "drive it, or declare it external with noteExternalDriver()");
    }

    // --- DIG004: dead signals ----------------------------------------------
    std::vector<SignalBase*> dead;
    for (SignalBase* s : mentioned) {
        const bool driven = drivers.count(s) != 0 || circuit.isExternallyDriven(*s);
        const bool used = readOrTriggered.count(s) != 0 || s->listenerCount() > 0 ||
                          s->watcherCount() > 0;
        if (driven && !used) {
            dead.push_back(s);
        }
    }
    for (SignalBase* s : byName(std::move(dead))) {
        report.add("DIG004", Severity::Info, s->name(),
                   "driven but never read, listened to or recorded",
                   "remove it, or observe it in the testbench");
    }

    // --- DIG005: unclocked registers ---------------------------------------
    for (const ProcessConnectivity& c : conns) {
        if (!c.sequential || c.clock == nullptr) {
            continue;
        }
        if (drivers.count(c.clock) == 0 && !circuit.isExternallyDriven(*c.clock)) {
            report.add("DIG005", Severity::Warning, c.process->name(),
                       "sequential process clocked by '" + c.clock->name() +
                           "', which has no driver — the register will never update",
                       "connect a clock generator or mark the clock external");
        }
    }

    return report;
}

} // namespace gfi::lint
