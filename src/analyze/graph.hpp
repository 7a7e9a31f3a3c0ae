#pragma once
// Structural connectivity graph over the declared netlist metadata — pass 1
// of the static fault-space analyzer. Built purely from the connectivity
// registry (noteDrives/noteReads/noteSequential/noteCombKind), the saboteur
// and instrumentation registries, and the testbench's observation
// configuration; no process callback is ever executed.
//
// The graph answers the two questions the fault collapser and the SCOAP
// scorer need:
//   - levelization: the combinational depth of every signal (sequential
//     processes and external drivers cut the levels, exactly like DIG001
//     cuts combinational cycles);
//   - observability: whether a perturbation on a signal / state element /
//     saboteur has any structural path to a compared output, a watched or
//     listened-to signal, or a state element the classifier compares at the
//     end of the run (the DIG004 dead-signal cone, generalized to transitive
//     unobservability).

#include "core/fault.hpp"
#include "digital/circuit.hpp"

#include <map>
#include <string>
#include <vector>

namespace gfi::fault {
class Testbench;
}

namespace gfi::analyze {

/// Per-signal facts derived from the declared connectivity.
struct NodeInfo {
    const digital::SignalBase* signal = nullptr;
    bool observedTrace = false; ///< compared output (Testbench::observeDigital)
    bool watched = false;       ///< has watcher callbacks (recorder, D->A bridges)
    bool external = false;      ///< declared externally driven
    bool driven = false;        ///< driven by at least one process
    int level = 0;              ///< combinational depth (0 = source/sequential
                                ///< output, -1 = inside a combinational cycle)
    int fanout = 0;             ///< processes reading or triggered by it
    bool observable = false;    ///< structural path to an observed sink
};

/// The signal-level connectivity graph of one instrumented testbench.
class SignalGraph {
public:
    explicit SignalGraph(const fault::Testbench& tb);

    /// All known signals, in discovery order (connectivity + externals).
    [[nodiscard]] const std::vector<NodeInfo>& nodes() const noexcept { return nodes_; }

    /// Index of @p s in nodes(), or -1 when the netlist never mentions it.
    [[nodiscard]] int indexOf(const digital::SignalBase* s) const;

    /// Deepest combinational level of any signal.
    [[nodiscard]] int maxLevel() const noexcept { return maxLevel_; }

    /// Signals caught inside a combinational cycle (level -1).
    [[nodiscard]] std::size_t cyclicSignals() const noexcept { return cyclicSignals_; }

    /// Connectivity records, one per process (borrowed from the circuit).
    [[nodiscard]] const std::vector<const digital::ProcessConnectivity*>&
    processes() const noexcept
    {
        return processes_;
    }

    /// Processes reading or triggered by node @p node.
    [[nodiscard]] const std::vector<const digital::ProcessConnectivity*>&
    readersOf(int node) const;

    /// State hooks the testbench classifier compares at the end of the run.
    [[nodiscard]] const std::vector<std::string>& observedStateHooks() const noexcept
    {
        return observedStateHooks_;
    }

    /// All inputs of @p p (triggers + reads, deduplicated, clock excluded).
    [[nodiscard]] static std::vector<digital::SignalBase*>
    inputsOf(const digital::ProcessConnectivity& p);

    /// True when a perturbation on @p s can structurally reach an observed
    /// sink. Conservative: unknown signals count as observable.
    [[nodiscard]] bool signalObservable(const digital::SignalBase* s) const;

    /// The component owning @p hookName: longest component-name prefix match
    /// (hook "cpu/core/pc" belongs to component "cpu/core"). Null if none.
    [[nodiscard]] const digital::Component*
    componentOfHook(const std::string& hookName) const;

    /// True when a fault inside @p componentName's state can structurally
    /// reach an observed sink: the component owns a compared state hook, or
    /// any signal driven by any of its processes is observable. Conservative:
    /// unknown components count as observable.
    [[nodiscard]] bool componentObservable(const std::string& componentName) const;

    /// True when flipping state hook @p hookName can reach an observed sink.
    [[nodiscard]] bool hookObservable(const std::string& hookName) const;

    /// True when @p fault can structurally affect any compared output or
    /// state. Conservative: golden, analog and unknown-target faults count
    /// as observable (they are never statically masked).
    [[nodiscard]] bool faultObservable(const fault::FaultSpec& fault) const;

    /// Where the zero-delay buffer/inverter chain downstream of a digital
    /// saboteur ends: the terminal saboteur every interconnect fault on the
    /// chain collapses onto, plus the inverter parity accumulated between
    /// the two (stuck-at-v upstream == stuck-at-(v ^ parity) at the
    /// terminal). The walk stops at observed/watched/multi-fanout signals,
    /// non-zero-delay stages and opaque logic — everything that would break
    /// waveform equivalence on the observed outputs.
    struct ChainTerminal {
        std::string saboteur;
        bool inverted = false;
    };
    [[nodiscard]] ChainTerminal chainTerminalOf(const std::string& saboteurName) const;

private:
    int addNode(const digital::SignalBase* s);
    void buildNodes(const fault::Testbench& tb);
    void levelize();
    void markObservable(const fault::Testbench& tb);

    const fault::Testbench* tb_;
    const digital::Circuit* circuit_;
    std::vector<NodeInfo> nodes_;
    std::map<const digital::SignalBase*, int> index_;
    std::vector<const digital::ProcessConnectivity*> processes_;
    std::map<std::string, const digital::ProcessConnectivity*> processByName_;
    std::vector<std::vector<const digital::ProcessConnectivity*>> readers_;
    std::vector<std::vector<const digital::ProcessConnectivity*>> drivingProcesses_;
    std::vector<std::string> observedStateHooks_;
    int maxLevel_ = 0;
    std::size_t cyclicSignals_ = 0;
};

} // namespace gfi::analyze
