#pragma once
// MixedSimulator: lockstep co-simulation of the digital event kernel and the
// analog transient solver — the C++ counterpart of the mixed-mode simulator
// (ADVance-MS) used in the paper.
//
// Synchronization protocol:
//   * the analog solver never advances past the next scheduled digital event,
//     so digital-driven analog levels are always current;
//   * analog threshold crossings (A->D bridges) cut the analog step exactly
//     at the crossing, advance the digital clock to that instant, force the
//     digital signal and run delta cycles before the analog solver resumes;
//   * digital events that change analog drives (D->A bridges) mark an analog
//     discontinuity so companion models restart cleanly.

#include "analog/solver.hpp"
#include "digital/circuit.hpp"
#include "obs/probe.hpp"
#include "sim/watchdog.hpp"
#include "snapshot/snapshot.hpp"

#include <array>
#include <functional>
#include <memory>
#include <utility>

namespace gfi::ams {

class ConvergencePlan;

/// Always-on counters of AMS bridge activity (bumped by the bridges in
/// bridge.cpp; cost: one increment per domain crossing).
struct BridgeCounters {
    std::uint64_t atodCrossings = 0; ///< analog->digital threshold firings
    std::uint64_t dtoaEvents = 0;    ///< digital->analog drive-level updates
};

/// Owns one digital circuit, one analog system, and the glue between them.
class MixedSimulator {
public:
    MixedSimulator() = default;
    MixedSimulator(const MixedSimulator&) = delete;
    MixedSimulator& operator=(const MixedSimulator&) = delete;

    /// The digital half (build your logic here).
    [[nodiscard]] digital::Circuit& digital() noexcept { return digital_; }
    [[nodiscard]] const digital::Circuit& digital() const noexcept { return digital_; }

    /// The analog half (build your circuit here).
    [[nodiscard]] analog::AnalogSystem& analog() noexcept { return analog_; }
    [[nodiscard]] const analog::AnalogSystem& analog() const noexcept { return analog_; }

    /// Registers a callback run once at elaboration, when the transient
    /// solver exists (bridges install their monitors here).
    void onElaborate(std::function<void(analog::TransientSolver&)> cb)
    {
        elaborationHooks_.push_back(std::move(cb));
    }

    /// Creates the solver, computes the DC operating point and installs the
    /// bridges. Called lazily by run(); call explicitly to pass options.
    void elaborate(analog::SolverOptions options = {});

    /// True once elaborate() has run.
    [[nodiscard]] bool elaborated() const noexcept { return solver_ != nullptr; }

    /// The transient solver; valid after elaborate().
    [[nodiscard]] const analog::TransientSolver& solver() const
    {
        if (!solver_) {
            throw std::logic_error("MixedSimulator: not elaborated yet");
        }
        return *solver_;
    }
    [[nodiscard]] analog::TransientSolver& solver()
    {
        return const_cast<analog::TransientSolver&>(std::as_const(*this).solver());
    }

    /// Runs the co-simulation until @p until (inclusive of events at @p until).
    void run(SimTime until);

    /// Current co-simulation time (the digital kernel's clock).
    [[nodiscard]] SimTime now() const noexcept { return digital_.scheduler().now(); }

    // --- kernel probes ------------------------------------------------------

    /// Bridge-crossing counters (the bridges increment these).
    [[nodiscard]] BridgeCounters& bridgeCounters() noexcept { return bridgeCounters_; }
    [[nodiscard]] const BridgeCounters& bridgeCounters() const noexcept
    {
        return bridgeCounters_;
    }

    /// One coherent reading of every kernel probe: scheduler dispatch/queue
    /// counters, solver step statistics, bridge crossings. Cheap (plain field
    /// reads); safe at any point, including after a watchdog unwind.
    [[nodiscard]] obs::ProbeSnapshot sampleProbes() const;

    // --- snapshot/restore ---------------------------------------------------

    /// Registry of the Snapshottables outside the digital component list:
    /// the AMS bridges add themselves at construction (hysteresis/level
    /// state), testbenches add state of their own (a supervisor's flags).
    /// Everything registered rides along in every snapshot.
    [[nodiscard]] snapshot::SnapshotRegistry& stateRegistry() noexcept { return extraState_; }

    /// Serializes the full simulator state — digital scheduler (time, seq,
    /// wave counters, pending transactions), every signal, every Snapshottable
    /// digital component, the state registry, and the analog solver plus
    /// per-component companion history — into one byte-stable stream.
    /// Elaborates first. The simulator must be quiescent: call after run(t)
    /// returns, never from inside a process or bridge callback.
    [[nodiscard]] snapshot::Snapshot captureSnapshot();

    /// Captures a never-run, purely digital simulator as built: before
    /// elaboration, before the kernel's startup pass. Restoring the result
    /// un-elaborates the target, so the next run() elaborates and starts it
    /// exactly as it would a freshly built twin — faults armed between the
    /// restore and run() land before start(), as on a fresh build. Throws
    /// std::logic_error once elaborated or when the design has analog
    /// unknowns (their pre-DC state is not serialized).
    [[nodiscard]] snapshot::Snapshot capturePreStartSnapshot() const;

    /// The canonical state (DESIGN.md §9 "Convergence exit"): every signal's
    /// value, then every signal's pending transactions, the scheduler's
    /// started flag, runnable set and queue (Scheduler::captureCanonical),
    /// and the captured bytes of every Snapshottable digital component and
    /// of stateRegistry(). Two quiescent runs of one design whose canonical
    /// states are equal byte for byte continue identically. The first
    /// signals().size() * 8 bytes are the values alone, so a comparison can
    /// stop at the first section.
    [[nodiscard]] std::vector<std::uint8_t> canonicalState() const;

    /// Restores state captured by captureSnapshot() or
    /// capturePreStartSnapshot() into THIS simulator, which must be a
    /// structural twin built by the same testbench factory — freshly built or
    /// used by earlier runs. Overwrites members directly — no instrumentation
    /// setters, no event propagation — and re-arms component self-scheduled
    /// actions. An elaborated capture elaborates first (DC solve + bridge
    /// hooks); a pre-start capture drops the solver instead. After this
    /// returns, run() continues exactly as the captured simulator would have.
    void restoreSnapshot(const snapshot::Snapshot& snap);

    // --- convergence exit -----------------------------------------------------

    /// Arms a convergence exit (not owned; nullptr disarms) for a purely
    /// digital run whose fault's last scheduled action is at @p lastAction.
    /// A run(until) call with until >= the plan's duration then checks the
    /// canonical state at the 1st, 2nd, 4th, 8th, ... golden event time
    /// after @p lastAction; on the first exact match it restores golden's
    /// final snapshot, bills the skipped suffix to every kernel counter and
    /// to the watchdog (when the watchdog's wave budget cannot take the
    /// suffix it does not exit) and runs on to until. Arming clears
    /// convergedAt(). The recorder does not see the skipped suffix: see
    /// trace::Recorder::appendSuffix.
    void armConvergence(const ConvergencePlan* plan, SimTime lastAction);

    /// The mark at which the armed run's state rejoined golden's, or -1.
    [[nodiscard]] SimTime convergedAt() const noexcept { return converge_.at; }

    /// Digital waves a convergence exit billed instead of simulating.
    [[nodiscard]] std::uint64_t convergenceSkippedWaves() const noexcept
    {
        return converge_.skippedWaves;
    }

    // --- fault-tolerant execution support ----------------------------------

    /// Attaches a per-run watchdog to both kernels (not owned; nullptr
    /// detaches). Digital waves and analog step attempts are charged against
    /// its budgets; exhaustion unwinds run() with WatchdogTimeout.
    void setWatchdog(Watchdog* wd);

    /// Attaches a flight recorder to both kernels and the AMS bridges (not
    /// owned; nullptr detaches). Scheduler waves, solver step accepts and
    /// rejects, bridge crossings and restores of elaborated snapshots (not
    /// pre-start ones, which stand for a fresh build) then record into its
    /// bounded ring — always cheap, so a campaign can keep it armed for
    /// every contained run and dump the window only when a run dies.
    void setFlightRecorder(obs::FlightRecorder* fr);
    [[nodiscard]] obs::FlightRecorder* flightRecorder() const noexcept { return recorder_; }

    /// Scales the solver's dtMax/dtInitial at elaboration time — the retry
    /// policy uses this to re-run a diverged fault with a tightened step.
    /// Must be set before elaborate(); 1.0 = nominal.
    void setSolverStepScale(double scale) noexcept { stepScale_ = scale; }
    [[nodiscard]] double solverStepScale() const noexcept { return stepScale_; }

private:
    /// The snapshot of the current state, elaborated or not (both captures).
    [[nodiscard]] snapshot::Snapshot capture() const;

    /// The Snapshottable digital components and the analog components, in
    /// registration order; rebuilt only when a component was added.
    [[nodiscard]] const snapshot::SnapshotRegistry& digitalRegistry() const;
    [[nodiscard]] const snapshot::SnapshotRegistry& analogRegistry() const;

    /// LayoutDigest of every name a snapshot of this simulator carries;
    /// recomputed only when a signal, component or registry entry was added.
    [[nodiscard]] std::uint64_t layoutDigest() const;

    /// canonicalState()'s values section, and everything after it, appended
    /// to @p w.
    void captureCanonicalValues(snapshot::Writer& w) const;
    void captureCanonicalRest(snapshot::Writer& w) const;

    /// The armed run's next check time after now() and before @p until, or
    /// kTimeMax.
    [[nodiscard]] SimTime nextConvergenceMark(SimTime until);

    /// The check at mark time now(): true when the run exited.
    bool tryConverge();

    /// One registry plus the component count it was built for.
    struct CachedRegistry {
        snapshot::SnapshotRegistry registry;
        std::size_t builtFor = static_cast<std::size_t>(-1);
    };

    /// The armed convergence exit of the current run.
    struct Convergence {
        const ConvergencePlan* plan = nullptr;
        std::size_t first = 0;     ///< first golden event time after the last action
        std::uint64_t ordinal = 1; ///< next check: the ordinal-th such time
        SimTime at = -1;           ///< where it exited, -1 = not (yet)
        std::uint64_t skippedWaves = 0;
        snapshot::Writer scratch;  ///< this run's canonical state
    };

    digital::Circuit digital_;
    analog::AnalogSystem analog_;
    std::unique_ptr<analog::TransientSolver> solver_;
    snapshot::SnapshotRegistry extraState_;
    std::vector<std::function<void(analog::TransientSolver&)>> elaborationHooks_;
    Watchdog* watchdog_ = nullptr;
    obs::FlightRecorder* recorder_ = nullptr;
    double stepScale_ = 1.0;
    BridgeCounters bridgeCounters_;
    mutable CachedRegistry digitalRegistry_;
    mutable CachedRegistry analogRegistry_;
    mutable std::uint64_t layout_ = 0;
    mutable std::array<std::size_t, 4> layoutFor_{}; ///< sizes layout_ was built for
    Convergence converge_;
};

} // namespace gfi::ams
