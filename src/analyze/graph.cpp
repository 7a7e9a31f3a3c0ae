#include "analyze/graph.hpp"

#include "analyze/scc.hpp"
#include "core/testbench.hpp"

#include <algorithm>
#include <deque>

namespace gfi::analyze {

using digital::CombKind;
using digital::ProcessConnectivity;
using digital::SignalBase;

SignalGraph::SignalGraph(const fault::Testbench& tb)
    : tb_(&tb), circuit_(&tb.sim().digital())
{
    buildNodes(tb);
    levelize();
    markObservable(tb);
}

int SignalGraph::addNode(const SignalBase* s)
{
    const auto it = index_.find(s);
    if (it != index_.end()) {
        return it->second;
    }
    const int idx = static_cast<int>(nodes_.size());
    index_.emplace(s, idx);
    NodeInfo n;
    n.signal = s;
    nodes_.push_back(n);
    readers_.emplace_back();
    drivingProcesses_.emplace_back();
    return idx;
}

int SignalGraph::indexOf(const SignalBase* s) const
{
    const auto it = index_.find(s);
    return it == index_.end() ? -1 : it->second;
}

const std::vector<const ProcessConnectivity*>& SignalGraph::readersOf(int node) const
{
    return readers_.at(static_cast<std::size_t>(node));
}

std::vector<SignalBase*> SignalGraph::inputsOf(const ProcessConnectivity& p)
{
    std::vector<SignalBase*> inputs;
    for (SignalBase* s : p.triggers) {
        if (std::find(inputs.begin(), inputs.end(), s) == inputs.end()) {
            inputs.push_back(s);
        }
    }
    for (SignalBase* s : p.reads) {
        if (std::find(inputs.begin(), inputs.end(), s) == inputs.end()) {
            inputs.push_back(s);
        }
    }
    return inputs;
}

void SignalGraph::buildNodes(const fault::Testbench& tb)
{
    for (const ProcessConnectivity& c : circuit_->connectivity()) {
        processes_.push_back(&c);
        processByName_.emplace(c.process->name(), &c);
        for (SignalBase* s : c.drives) {
            const int idx = addNode(s);
            nodes_[static_cast<std::size_t>(idx)].driven = true;
            drivingProcesses_[static_cast<std::size_t>(idx)].push_back(&c);
        }
        for (SignalBase* s : inputsOf(c)) {
            const int idx = addNode(s);
            readers_[static_cast<std::size_t>(idx)].push_back(&c);
            ++nodes_[static_cast<std::size_t>(idx)].fanout;
        }
    }
    for (SignalBase* s : circuit_->externalDrivers()) {
        nodes_[static_cast<std::size_t>(addNode(s))].external = true;
    }
    for (NodeInfo& n : nodes_) {
        // Watchers are callbacks from OUTSIDE the declared process graph
        // (trace-recorder taps, D->A bridges) — genuine observation sinks.
        // Listeners are process sensitivities, already modeled as reader
        // edges, so they must NOT count as sinks here.
        n.watched = n.signal->watcherCount() > 0;
    }
    for (const std::string& name : tb.observedDigital()) {
        if (!circuit_->hasSignal(name)) {
            continue;
        }
        const int idx = indexOf(&circuit_->findSignal(name));
        if (idx >= 0) {
            nodes_[static_cast<std::size_t>(idx)].observedTrace = true;
        }
    }
    observedStateHooks_ = tb.observedState();
}

void SignalGraph::levelize()
{
    // Vertices: combinational processes; edge p -> q when p drives a signal
    // that is an input of q. Sequential processes and external drivers cut
    // the levels (their outputs are level-0 sources), mirroring how DIG001
    // excludes them from the cycle check.
    std::vector<const ProcessConnectivity*> comb;
    std::map<const ProcessConnectivity*, int> combIndex;
    for (const ProcessConnectivity* c : processes_) {
        if (!c->sequential) {
            combIndex[c] = static_cast<int>(comb.size());
            comb.push_back(c);
        }
    }
    std::vector<std::vector<int>> adj(comb.size());
    for (std::size_t p = 0; p < comb.size(); ++p) {
        for (SignalBase* s : comb[p]->drives) {
            const int node = indexOf(s);
            if (node < 0) {
                continue;
            }
            for (const ProcessConnectivity* r : readersOf(node)) {
                if (const auto it = combIndex.find(r); it != combIndex.end()) {
                    adj[p].push_back(it->second);
                }
            }
        }
    }

    // tarjanScc emits components in reverse topological order; walk it
    // backward so every process sees its inputs' levels already settled.
    const std::vector<std::vector<int>> sccs = tarjanScc(adj);
    for (auto it = sccs.rbegin(); it != sccs.rend(); ++it) {
        const std::vector<int>& scc = *it;
        if (sccIsCyclic(scc, adj)) {
            for (const int v : scc) {
                for (SignalBase* s : comb[static_cast<std::size_t>(v)]->drives) {
                    if (const int node = indexOf(s); node >= 0) {
                        nodes_[static_cast<std::size_t>(node)].level = -1;
                    }
                }
            }
            continue;
        }
        const ProcessConnectivity* p = comb[static_cast<std::size_t>(scc.front())];
        int inLevel = 0;
        bool cyclicInput = false;
        for (SignalBase* s : inputsOf(*p)) {
            const int node = indexOf(s);
            if (node < 0) {
                continue;
            }
            const int l = nodes_[static_cast<std::size_t>(node)].level;
            if (l < 0) {
                cyclicInput = true;
            } else {
                inLevel = std::max(inLevel, l);
            }
        }
        for (SignalBase* s : p->drives) {
            const int node = indexOf(s);
            if (node < 0) {
                continue;
            }
            NodeInfo& n = nodes_[static_cast<std::size_t>(node)];
            if (n.level >= 0) {
                n.level = cyclicInput ? -1 : std::max(n.level, inLevel + 1);
            }
        }
    }

    maxLevel_ = 0;
    cyclicSignals_ = 0;
    for (const NodeInfo& n : nodes_) {
        if (n.level < 0) {
            ++cyclicSignals_;
        } else {
            maxLevel_ = std::max(maxLevel_, n.level);
        }
    }
}

void SignalGraph::markObservable(const fault::Testbench& tb)
{
    // Sinks: compared traces, watched/listened signals (recorder taps, AMS
    // bridges), and every input of a process belonging to a component whose
    // state the classifier compares at the end of the run.
    std::deque<int> queue;
    const auto enqueue = [&](int node) {
        if (node >= 0 && !nodes_[static_cast<std::size_t>(node)].observable) {
            nodes_[static_cast<std::size_t>(node)].observable = true;
            queue.push_back(node);
        }
    };
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].observedTrace || nodes_[i].watched) {
            enqueue(static_cast<int>(i));
        }
    }
    for (const std::string& hook : tb.observedState()) {
        const digital::Component* comp = componentOfHook(hook);
        if (comp == nullptr) {
            continue;
        }
        const std::string& prefix = comp->name();
        for (const ProcessConnectivity* p : processes_) {
            const std::string& pn = p->process->name();
            if (pn.compare(0, prefix.size(), prefix) != 0 ||
                (pn.size() > prefix.size() && pn[prefix.size()] != '/')) {
                continue;
            }
            for (SignalBase* s : inputsOf(*p)) {
                enqueue(indexOf(s));
            }
        }
    }
    // Backward closure: an input of a process is observable when any of the
    // process's driven signals is (through registers too — a latent fault
    // stored now can surface on a compared output later).
    while (!queue.empty()) {
        const int node = queue.front();
        queue.pop_front();
        for (const ProcessConnectivity* p : drivingProcesses_[static_cast<std::size_t>(node)]) {
            for (SignalBase* s : inputsOf(*p)) {
                enqueue(indexOf(s));
            }
        }
    }
}

bool SignalGraph::signalObservable(const SignalBase* s) const
{
    const int node = indexOf(s);
    if (node < 0) {
        return true; // unknown to the netlist: never statically mask
    }
    return nodes_[static_cast<std::size_t>(node)].observable;
}

const digital::Component* SignalGraph::componentOfHook(const std::string& hookName) const
{
    const digital::Component* best = nullptr;
    std::size_t bestLen = 0;
    for (const auto& comp : circuit_->components()) {
        const std::string& name = comp->name();
        const bool matches =
            hookName == name ||
            (hookName.size() > name.size() && hookName.compare(0, name.size(), name) == 0 &&
             hookName[name.size()] == '/');
        if (matches && name.size() >= bestLen) {
            best = comp.get();
            bestLen = name.size();
        }
    }
    return best;
}

bool SignalGraph::componentObservable(const std::string& componentName) const
{
    // A compared state hook owned by this component makes any internal state
    // fault observable (state-to-state coupling inside one component is
    // invisible to the netlist, so this is deliberately coarse).
    for (const std::string& hook : observedStateHooks_) {
        const digital::Component* owner = componentOfHook(hook);
        if (owner != nullptr && owner->name() == componentName) {
            return true;
        }
    }
    bool sawProcess = false;
    for (const ProcessConnectivity* p : processes_) {
        const std::string& pn = p->process->name();
        if (pn.compare(0, componentName.size(), componentName) != 0 ||
            (pn.size() > componentName.size() && pn[componentName.size()] != '/')) {
            continue;
        }
        sawProcess = true;
        for (SignalBase* s : p->drives) {
            if (signalObservable(s)) {
                return true;
            }
        }
    }
    // A component with no declared processes acts outside the netlist
    // (stimulus schedules, bridges): never statically mask it.
    return !sawProcess;
}

bool SignalGraph::hookObservable(const std::string& hookName) const
{
    if (std::find(observedStateHooks_.begin(), observedStateHooks_.end(), hookName) !=
        observedStateHooks_.end()) {
        return true;
    }
    const digital::Component* comp = componentOfHook(hookName);
    if (comp == nullptr) {
        return true; // unowned hook: never statically mask
    }
    return componentObservable(comp->name());
}

bool SignalGraph::faultObservable(const fault::FaultSpec& fault) const
{
    return std::visit(
        [this](const auto& f) -> bool {
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, fault::BitFlipFault> ||
                          std::is_same_v<T, fault::DoubleBitFlipFault> ||
                          std::is_same_v<T, fault::StateWriteFault>) {
                return hookObservable(f.target);
            } else if constexpr (std::is_same_v<T, fault::FsmTransitionFault>) {
                return componentObservable(f.target);
            } else if constexpr (std::is_same_v<T, fault::DigitalPulseFault> ||
                                 std::is_same_v<T, fault::StuckAtFault>) {
                const auto it = processByName_.find(f.saboteur + "/pass");
                if (it == processByName_.end()) {
                    return true; // unknown saboteur: never statically mask
                }
                for (SignalBase* s : it->second->drives) {
                    if (signalObservable(s)) {
                        return true;
                    }
                }
                return false;
            } else {
                // Golden, analog and parametric faults: outside the digital
                // netlist, always treated as observable.
                return true;
            }
        },
        fault);
}

SignalGraph::ChainTerminal SignalGraph::chainTerminalOf(const std::string& saboteurName) const
{
    ChainTerminal terminal{saboteurName, false};
    const auto start = processByName_.find(saboteurName + "/pass");
    if (start == processByName_.end() || start->second->drives.size() != 1 ||
        start->second->combDelay != 0) {
        return terminal;
    }
    bool parity = false;
    const SignalBase* cur = start->second->drives.front();
    std::size_t hops = 0;
    while (hops++ < nodes_.size() + 1) { // cycle guard
        const int node = indexOf(cur);
        if (node < 0) {
            break;
        }
        const NodeInfo& n = nodes_[static_cast<std::size_t>(node)];
        // The intermediate net must be invisible (not compared, watched or
        // externally driven) and feed exactly one process, or collapsing
        // onto a downstream stage would change an observed waveform.
        if (n.observedTrace || n.watched || n.external) {
            break;
        }
        const auto& readers = readersOf(node);
        if (readers.size() != 1) {
            break;
        }
        const ProcessConnectivity* next = readers.front();
        if (next->sequential || next->combDelay != 0 ||
            next->combKind == CombKind::Opaque || next->drives.size() != 1 ||
            inputsOf(*next).size() != 1) {
            break;
        }
        if (next->combKind == CombKind::Inverter) {
            parity = !parity;
        }
        // A saboteur stage becomes the new collapse terminal; the parity
        // accumulated so far maps stuck values onto it.
        const std::string& pn = next->process->name();
        constexpr const char* kPassSuffix = "/pass";
        const std::size_t suffixLen = 5;
        if (pn.size() > suffixLen &&
            pn.compare(pn.size() - suffixLen, suffixLen, kPassSuffix) == 0 &&
            tb_->findDigitalSaboteur(pn.substr(0, pn.size() - suffixLen)) != nullptr) {
            terminal.saboteur = pn.substr(0, pn.size() - suffixLen);
            terminal.inverted = parity;
        }
        cur = next->drives.front();
    }
    return terminal;
}

} // namespace gfi::analyze
