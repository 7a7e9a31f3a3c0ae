#pragma once
// Circuit: the elaborated digital design — owns the scheduler, all signals,
// all processes and all component instances, and exposes name-based lookup
// plus the instrumentation registry used for fault injection.

#include "digital/instrument.hpp"
#include "digital/signal.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gfi::digital {

/// Declared combinational shape of a process, for static fault collapsing.
/// Buffer/Inverter name single-input processes whose output is exactly the
/// (possibly inverted) input — the chains classic fault collapsing folds.
enum class CombKind {
    Opaque,   ///< arbitrary logic (default)
    Buffer,   ///< out follows the single input
    Inverter, ///< out is the complement of the single input
};

/// Declared static connectivity of one process. The sensitivity list is
/// recorded automatically at process creation; components declare the rest
/// (driven signals, non-triggering reads, sequential/clock role) so the lint
/// subsystem can reason about the netlist without executing any callback.
struct ProcessConnectivity {
    Process* process = nullptr;
    std::vector<SignalBase*> triggers; ///< sensitivity list (wakes the process)
    std::vector<SignalBase*> reads;    ///< sampled without triggering (DFF data)
    std::vector<SignalBase*> drives;   ///< signals the process schedules/forces
    bool sequential = false;           ///< clock-edge triggered: breaks
                                       ///< combinational cycles
    SignalBase* clock = nullptr;       ///< the clock, when sequential
    CombKind combKind = CombKind::Opaque; ///< declared via noteCombKind()
    SimTime combDelay = -1;            ///< propagation delay when declared
                                       ///< (-1 = unknown/undeclared)
};

/// Base class for structural component instances. Components register their
/// processes and instrumentation hooks in the owning Circuit at construction.
class Component {
public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;
    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /// Hierarchical instance name.
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// True for components with no mutable simulation state (pure
    /// combinational logic, ROMs, structural shells): they are skipped by
    /// snapshot capture and exempt from preflight rule PRE006, which rejects
    /// fork-from-golden campaigns over stateful non-Snapshottable components.
    [[nodiscard]] virtual bool snapshotExempt() const noexcept { return false; }

private:
    std::string name_;
};

/// A group of single-bit signals addressed as one vector value (LSB first).
class Bus {
public:
    Bus() = default;
    explicit Bus(std::vector<LogicSignal*> bits) : bits_(std::move(bits)) {}

    /// Number of bits.
    [[nodiscard]] int width() const noexcept { return static_cast<int>(bits_.size()); }

    /// Bit i (LSB = 0).
    [[nodiscard]] LogicSignal& bit(int i) const { return *bits_.at(static_cast<std::size_t>(i)); }

    /// Reads the bus as an unsigned integer; unknown bits read as 0 and set
    /// the optional @p allKnown flag to false.
    [[nodiscard]] std::uint64_t toUint(bool* allKnown = nullptr) const;

    /// Schedules every bit (inertial) so the bus carries @p value after @p delay.
    void scheduleUint(std::uint64_t value, SimTime delay = 0) const;

    /// Forces every bit immediately (testbench/injector use).
    void forceUint(std::uint64_t value) const;

    /// Renders as a bit string, MSB first (e.g. "0101").
    [[nodiscard]] std::string str() const;

    /// Underlying signals, LSB first.
    [[nodiscard]] const std::vector<LogicSignal*>& bits() const noexcept { return bits_; }

private:
    std::vector<LogicSignal*> bits_;
};

/// The elaborated design root.
class Circuit {
public:
    Circuit() = default;

    /// The event kernel driving this circuit.
    [[nodiscard]] Scheduler& scheduler() noexcept { return sched_; }
    [[nodiscard]] const Scheduler& scheduler() const noexcept { return sched_; }

    /// Creates (and owns) a typed signal. Names must be unique.
    template <typename T>
    Signal<T>& signal(const std::string& name, T initial)
    {
        auto sig = std::make_unique<Signal<T>>(sched_, name, initial);
        Signal<T>& ref = *sig;
        registerSignal(name, std::move(sig));
        return ref;
    }

    /// Creates a single-bit logic signal (default initial value 'U').
    LogicSignal& logicSignal(const std::string& name, Logic initial = Logic::U)
    {
        return signal<Logic>(name, initial);
    }

    /// Creates @p width logic signals "<name>[i]" and returns them as a Bus.
    Bus bus(const std::string& name, int width, Logic initial = Logic::U);

    /// Looks up a previously created logic signal; throws std::out_of_range.
    [[nodiscard]] LogicSignal& findLogic(const std::string& name) const;

    /// Looks up any signal by name (snapshot restore); throws std::out_of_range.
    [[nodiscard]] SignalBase& findSignal(const std::string& name) const;

    /// True if a signal with this exact name exists.
    [[nodiscard]] bool hasSignal(const std::string& name) const
    {
        return signals_.count(name) != 0;
    }

    /// Names of all signals, in creation order.
    [[nodiscard]] const std::vector<std::string>& signalNames() const noexcept
    {
        return signalOrder_;
    }

    /// All signals, in creation order (snapshot capture and restore walk
    /// these without a name lookup).
    [[nodiscard]] const std::vector<SignalBase*>& signals() const noexcept
    {
        return signalList_;
    }

    /// Creates (and owns) a process sensitive to @p sensitivity.
    Process& process(const std::string& name, std::function<void()> fn,
                     std::initializer_list<SignalBase*> sensitivity = {});

    /// Creates (and owns) a process with a vector sensitivity list.
    Process& process(const std::string& name, std::function<void()> fn,
                     const std::vector<SignalBase*>& sensitivity);

    // --- declared connectivity (static-analysis metadata) -------------------

    /// Declares that @p p schedules or forces the given signals.
    void noteDrives(Process& p, const std::vector<SignalBase*>& signals);

    /// Declares that @p p samples the given signals without being sensitive
    /// to them (register data inputs, FSM inputs, memory address buses).
    void noteReads(Process& p, const std::vector<SignalBase*>& signals);

    /// Declares that @p p is clock-edge triggered (a register): it does not
    /// participate in combinational cycles. @p clock may be null for
    /// processes without a single clock (multi-edge detectors).
    void noteSequential(Process& p, SignalBase* clock);

    /// Declares that @p p is a pure buffer/inverter with propagation delay
    /// @p delay — metadata the static fault-space analyzer uses to collapse
    /// equivalent faults through interconnect chains.
    void noteCombKind(Process& p, CombKind kind, SimTime delay);

    /// Declares that @p s is driven from outside the process network: clock
    /// generators, analog-to-digital bridges and testbench stimuli that force
    /// values through scheduleAction()/forceValue().
    void noteExternalDriver(SignalBase& s) { externallyDriven_.insert(&s); }

    /// True when @p s was declared externally driven.
    [[nodiscard]] bool isExternallyDriven(const SignalBase& s) const
    {
        return externallyDriven_.count(const_cast<SignalBase*>(&s)) != 0;
    }

    /// Connectivity records, one per created process, in creation order.
    [[nodiscard]] const std::vector<ProcessConnectivity>& connectivity() const noexcept
    {
        return connectivity_;
    }

    /// All declared external drivers (lint iteration).
    [[nodiscard]] const std::unordered_set<SignalBase*>& externalDrivers() const noexcept
    {
        return externallyDriven_;
    }

    /// Constructs a component in place; the circuit owns it.
    template <typename C, typename... Args>
    C& add(Args&&... args)
    {
        auto comp = std::make_unique<C>(std::forward<Args>(args)...);
        C& ref = *comp;
        components_.push_back(std::move(comp));
        return ref;
    }

    /// Owned component instances, in registration order (the deterministic
    /// iteration order snapshot capture and preflight PRE006 rely on).
    [[nodiscard]] const std::vector<std::unique_ptr<Component>>& components() const noexcept
    {
        return components_;
    }

    /// The mutant/injection hook registry.
    [[nodiscard]] InstrumentationRegistry& instrumentation() noexcept { return registry_; }
    [[nodiscard]] const InstrumentationRegistry& instrumentation() const noexcept
    {
        return registry_;
    }

    /// Convenience: run the kernel until @p t.
    void runUntil(SimTime t) { sched_.runUntil(t); }

private:
    void registerSignal(const std::string& name, std::unique_ptr<SignalBase> sig);

    /// Connectivity record of @p p; throws std::logic_error for a foreign one.
    ProcessConnectivity& connOf(Process& p);

    Scheduler sched_;
    std::unordered_map<std::string, std::unique_ptr<SignalBase>> signals_;
    std::vector<std::string> signalOrder_;
    std::vector<SignalBase*> signalList_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<std::unique_ptr<Component>> components_;
    std::vector<ProcessConnectivity> connectivity_;
    std::unordered_map<const Process*, std::size_t> connIndex_;
    std::unordered_set<SignalBase*> externallyDriven_;
    InstrumentationRegistry registry_;
};

/// Convenience: a Bus as the signal list the connectivity declarations take.
[[nodiscard]] std::vector<SignalBase*> busSignals(const Bus& bus);

} // namespace gfi::digital
