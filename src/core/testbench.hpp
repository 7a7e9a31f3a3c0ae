#pragma once
// Testbench: one self-contained, instrumented simulation instance.
//
// A fault-injection campaign needs a circuit in its as-built state per run
// (the paper's flow re-runs the instrumented description once per fault). A
// Testbench bundles the mixed simulator, the trace recorder, the saboteur/
// mutant/parameter registries the injector addresses by name, and the
// observation configuration (which signals/nodes/states the classifier
// compares). The campaign runner gets that state either from a fresh build
// or by restoring a used testbench from a golden checkpoint (TestbenchFactory
// states the contract).

#include "ams/mixed_sim.hpp"
#include "core/fault.hpp"
#include "core/saboteur.hpp"
#include "digital/fsm.hpp"
#include "trace/trace.hpp"

#include <functional>
#include <map>
#include <memory>

namespace gfi::fault {

/// An instrumented design instance plus its observation configuration.
class Testbench {
public:
    Testbench()
        : sim_(std::make_unique<ams::MixedSimulator>()),
          recorder_(std::make_unique<trace::Recorder>(*sim_))
    {
    }
    virtual ~Testbench() = default;
    Testbench(const Testbench&) = delete;
    Testbench& operator=(const Testbench&) = delete;

    /// The simulator (build the circuit through this).
    [[nodiscard]] ams::MixedSimulator& sim() noexcept { return *sim_; }
    [[nodiscard]] const ams::MixedSimulator& sim() const noexcept { return *sim_; }

    /// The trace recorder.
    [[nodiscard]] trace::Recorder& recorder() noexcept { return *recorder_; }
    [[nodiscard]] const trace::Recorder& recorder() const noexcept { return *recorder_; }

    /// Constructs an arbitrary helper object (bridge, driver, ...) owned by
    /// this testbench — it is destroyed with the testbench.
    template <typename T, typename... Args>
    T& make(Args&&... args)
    {
        auto obj = std::make_shared<T>(std::forward<Args>(args)...);
        T& ref = *obj;
        held_.push_back(std::move(obj));
        return ref;
    }

    // --- injection-target registries --------------------------------------

    /// Registers an analog current saboteur under its component name.
    void addCurrentSaboteur(CurrentSaboteur& s) { currentSaboteurs_[s.name()] = &s; }

    /// Registers a digital saboteur under its component name.
    void addDigitalSaboteur(DigitalSaboteur& s) { digitalSaboteurs_[s.name()] = &s; }

    /// Registers an FSM for transition-fault injection.
    void addFsm(digital::TableFsm& f) { fsms_[f.name()] = &f; }

    /// Registers a named parametric-fault setter (factor 1.0 = nominal).
    void addParameter(const std::string& name, std::function<void(double)> setter)
    {
        parameters_[name] = std::move(setter);
    }

    [[nodiscard]] CurrentSaboteur* findCurrentSaboteur(const std::string& name) const
    {
        const auto it = currentSaboteurs_.find(name);
        return it == currentSaboteurs_.end() ? nullptr : it->second;
    }
    [[nodiscard]] DigitalSaboteur* findDigitalSaboteur(const std::string& name) const
    {
        const auto it = digitalSaboteurs_.find(name);
        return it == digitalSaboteurs_.end() ? nullptr : it->second;
    }
    [[nodiscard]] digital::TableFsm* findFsm(const std::string& name) const
    {
        const auto it = fsms_.find(name);
        return it == fsms_.end() ? nullptr : it->second;
    }
    [[nodiscard]] const std::function<void(double)>* findParameter(const std::string& name) const
    {
        const auto it = parameters_.find(name);
        return it == parameters_.end() ? nullptr : &it->second;
    }

    /// Names of all registered current saboteurs (campaign target lists).
    [[nodiscard]] std::vector<std::string> currentSaboteurNames() const
    {
        std::vector<std::string> names;
        for (const auto& [name, ptr] : currentSaboteurs_) {
            names.push_back(name);
        }
        return names;
    }

    /// Names of all registered digital saboteurs.
    [[nodiscard]] std::vector<std::string> digitalSaboteurNames() const
    {
        std::vector<std::string> names;
        for (const auto& [name, ptr] : digitalSaboteurs_) {
            names.push_back(name);
        }
        return names;
    }

    // --- observation configuration ----------------------------------------

    /// Marks a digital signal as a compared output (records its trace).
    void observeDigital(const std::string& signalName)
    {
        recorder_->recordDigital(signalName);
        observedDigital_.push_back(signalName);
    }

    /// Marks an analog node as a compared output (records its waveform).
    void observeAnalog(const std::string& nodeName)
    {
        recorder_->recordAnalog(nodeName);
        observedAnalog_.push_back(nodeName);
    }

    /// Marks a state element (instrumentation hook) for end-of-run latent
    /// comparison.
    void observeState(const std::string& hookName) { observedState_.push_back(hookName); }

    /// Marks every registered state element for latent comparison.
    void observeAllState()
    {
        for (const std::string& name : sim_->digital().instrumentation().names()) {
            observedState_.push_back(name);
        }
    }

    [[nodiscard]] const std::vector<std::string>& observedDigital() const noexcept
    {
        return observedDigital_;
    }
    [[nodiscard]] const std::vector<std::string>& observedAnalog() const noexcept
    {
        return observedAnalog_;
    }
    [[nodiscard]] const std::vector<std::string>& observedState() const noexcept
    {
        return observedState_;
    }

    // --- execution ----------------------------------------------------------

    /// Sets how long the experiment runs.
    void setDuration(SimTime t) { duration_ = t; }
    [[nodiscard]] SimTime duration() const noexcept { return duration_; }

    /// Runs the experiment (default: run the mixed simulation to duration()).
    /// Must be re-runnable after sim().restoreSnapshot(): everything it reads
    /// besides the simulator (flags, overlays) is Snapshottable state.
    virtual void run() { sim_->run(duration_); }

private:
    std::unique_ptr<ams::MixedSimulator> sim_;
    std::unique_ptr<trace::Recorder> recorder_;
    std::vector<std::shared_ptr<void>> held_;
    std::map<std::string, CurrentSaboteur*> currentSaboteurs_;
    std::map<std::string, DigitalSaboteur*> digitalSaboteurs_;
    std::map<std::string, digital::TableFsm*> fsms_;
    std::map<std::string, std::function<void(double)>> parameters_;
    std::vector<std::string> observedDigital_;
    std::vector<std::string> observedAnalog_;
    std::vector<std::string> observedState_;
    SimTime duration_ = kMicrosecond;
};

/// Builds a fresh testbench instance. A campaign calls it once for the golden
/// run, once per worker, and once per fresh-path attempt (retries,
/// parametric faults, designs with analog unknowns or state outside the
/// snapshot; CampaignRunner::run). Every other attempt re-runs a worker's
/// used testbench after restoring it from a golden checkpoint, so every
/// mutable piece of state a run depends on must be captured by a
/// snapshot::Snapshottable — a digital component, or an entry of
/// sim().stateRegistry() — and run() must be re-runnable after
/// sim().restoreSnapshot(). Called concurrently from worker threads: build
/// each testbench from per-instance state only.
using TestbenchFactory = std::function<std::unique_ptr<Testbench>()>;

/// Arms @p fault on @p tb (schedules the injection); throws
/// std::invalid_argument when the fault's target is not registered.
void armFault(Testbench& tb, const FaultSpec& fault);

} // namespace gfi::fault
