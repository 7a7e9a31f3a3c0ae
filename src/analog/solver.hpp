#pragma once
// Adaptive transient solver over the MNA system, with threshold-crossing
// monitors for mixed-signal synchronization.
//
// Integration: companion-model trapezoidal with backward-Euler restarts at
// discontinuities. Step control: predictor-corrector LTE estimate (linear
// extrapolation of the last two accepted solutions vs. the new solution) on
// integrated state only — the nodes that components declare through
// AnalogComponent::integratedNodes (capacitor and inductor terminals), as in
// SPICE-class solvers. Algebraic unknowns (ideal-source branches, controlled-
// source outputs, a behavioral VCO's exact sinusoid) carry no truncation
// error of their own; they are resolved by the components' maxStep hints and
// by breakpoints instead. A system without integrated state steps at those
// bounds and dtMax. The integrated set is structural: built per solver from
// its own system at construction, never snapshotted.
// Monitors: after each candidate step, node voltages are checked against
// registered thresholds; on a crossing the step is cut at the end of the
// bracket that bisecting it to options.crossingTol reaches (every trial
// re-solves from the step start with a shorter dt, which is exact, not
// interpolated), then the monitor callback fires. locateCrossing
// (analog/crossing.hpp) predicts that bracket from an Illinois estimate and
// solves only its ends, falling back to the bisection when the prediction
// does not verify. This gives the digitizer edge times femtosecond-level
// accuracy, which bounds the accuracy of every clock-period measurement in
// the PLL experiments.

#include "analog/linear.hpp"
#include "analog/system.hpp"
#include "obs/probe.hpp"
#include "sim/watchdog.hpp"
#include "snapshot/serialize.hpp"

#include <functional>
#include <memory>
#include <set>
#include <utility>

namespace gfi::obs {
class FlightRecorder;
}

namespace gfi::analog {

/// Tuning knobs for the transient solver.
struct SolverOptions {
    double dtMin = 1e-16;       ///< smallest step before giving up (s)
    double dtMax = 1e-6;        ///< largest step (s)
    double dtInitial = 1e-12;   ///< first step / restart step after discontinuities (s)
    double newtonTol = 1e-7;    ///< Newton convergence: max |dx| (V or A)
    int maxNewtonIter = 200;    ///< Newton iteration cap per solve
    double lteRelTol = 2e-3;    ///< relative local-error target
    double lteAbsTol = 1e-5;    ///< absolute local-error floor (V or A)
    double gmin = 1e-12;        ///< conductance from every node to ground
    double crossingTol = 1e-15; ///< crossing localization resolution (s)
    double growthLimit = 2.0;   ///< max step growth factor per accepted step
};

/// Watches one node voltage for threshold crossings.
class CrossingMonitor {
public:
    enum class Edge { Rising, Falling, Both };

    /// @param cb  invoked as cb(tCross, risingDirection) once the solver has
    ///            cut a step exactly at the crossing.
    CrossingMonitor(NodeId node, double threshold, Edge edge,
                    std::function<void(double, bool)> cb)
        : node_(node), threshold_(threshold), edge_(edge), cb_(std::move(cb))
    {
    }

    [[nodiscard]] NodeId node() const noexcept { return node_; }
    [[nodiscard]] double threshold() const noexcept { return threshold_; }
    [[nodiscard]] Edge edge() const noexcept { return edge_; }

    /// Adjusts the threshold (campaign sweeps use this).
    void setThreshold(double v) { threshold_ = v; }

private:
    friend class TransientSolver;

    /// Crossing predicate for values at step start/end.
    [[nodiscard]] bool crossed(double v0, double v1) const noexcept
    {
        const bool rising = v0 < threshold_ && v1 >= threshold_;
        const bool falling = v0 > threshold_ && v1 <= threshold_;
        switch (edge_) {
        case Edge::Rising:
            return rising;
        case Edge::Falling:
            return falling;
        case Edge::Both:
            return rising || falling;
        }
        return false;
    }

    NodeId node_;
    double threshold_;
    Edge edge_;
    std::function<void(double, bool)> cb_;
};

/// Cumulative solver statistics (performance benches report these).
/// The first five fields are snapshot-captured; the probe fields below them
/// are telemetry-only (billed per run by baseline delta, never serialized).
struct SolverStats {
    std::uint64_t acceptedSteps = 0;
    std::uint64_t rejectedSteps = 0;
    std::uint64_t newtonIterations = 0;
    std::uint64_t linearSolves = 0;
    std::uint64_t crossingsLocated = 0;

    // Kernel probes.
    std::uint64_t companionRebuilds = 0; ///< discontinuity restarts
    std::uint64_t crossingFallbacks = 0; ///< crossings located by the bisection fallback
    obs::StepLimitCounts stepsLimitedBy{}; ///< accepted steps per limiting bound; sums to
                                           ///< acceptedSteps on a solver never restored
    double minAcceptedDt = 0.0;          ///< smallest accepted step (s); 0 = none yet
    double lastAcceptedDt = 0.0;         ///< most recent accepted step (s)
};

/// The transient engine.
class TransientSolver {
public:
    explicit TransientSolver(AnalogSystem& sys, SolverOptions options = {});

    /// Computes the DC operating point (capacitors open, inductors short)
    /// and primes the dynamic components. Must run before advanceTo.
    void solveDc();

    /// Advances the analog time towards @p tStop. Returns the time actually
    /// reached: tStop, or earlier if a monitor crossing fired (its callback
    /// has already run when this returns).
    double advanceTo(double tStop);

    /// Registers a crossing monitor (owned by the solver).
    CrossingMonitor& addMonitor(NodeId node, double threshold, CrossingMonitor::Edge edge,
                                std::function<void(double, bool)> cb);

    /// Registers a callback invoked after every accepted step (trace probes).
    void onAccept(std::function<void(double)> cb) { probes_.push_back(std::move(cb)); }

    /// Declares a discontinuity at the current time: companion histories are
    /// dropped and the next step restarts small. The mixed-signal bridges
    /// call this whenever a digital event changes an analog drive level.
    void markDiscontinuity();

    /// Adds an explicit time the integrator must land on.
    void addBreakpoint(double t) { breakpoints_.insert(t); }

    /// Current analog time (seconds).
    [[nodiscard]] double time() const noexcept { return time_; }

    /// Cumulative statistics.
    [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }

    /// Solver options (read-only).
    [[nodiscard]] const SolverOptions& options() const noexcept { return options_; }

    /// MNA unknown indices under LTE control (sorted, unique): the nodes the
    /// system's components declare as integrated state.
    [[nodiscard]] const std::vector<int>& integratedUnknowns() const noexcept
    {
        return integrated_;
    }

    /// Serializes the integrator state: analog time, adaptive-step control,
    /// committed MNA solution, predictor history, cumulative statistics and
    /// external breakpoints. Monitors and probes are structural (rebuilt by
    /// elaboration) and are not captured. Per-component companion history is
    /// captured separately through AnalogComponent::captureState.
    void captureState(snapshot::Writer& w) const;

    /// Restores state written by captureState; the system must have the same
    /// unknown count as at capture time.
    void restoreState(snapshot::Reader& r);

    /// Attaches a per-run watchdog (not owned; nullptr detaches). Every step
    /// attempt charges one analog-step unit; budget exhaustion unwinds with
    /// WatchdogTimeout. Divergent solves (non-finite solution, step failure
    /// at the minimum step) unwind with DivergenceError.
    void setWatchdog(Watchdog* wd) noexcept { watchdog_ = wd; }

    /// Attaches a flight recorder (not owned; nullptr detaches). Every step
    /// accept/reject records one event — a branch and a ring write.
    void setFlightRecorder(obs::FlightRecorder* fr) noexcept { recorder_ = fr; }

private:
    /// One Newton solve of the step [time_, time_ + dt] from the committed
    /// state; returns false if Newton failed to converge or the matrix was
    /// singular. On success @p xOut holds the candidate end-of-step solution.
    /// @p tEvalOverride >= 0 replaces the source-evaluation time (used to
    /// evaluate a breakpoint-landing step at the left limit of the corner).
    bool trySolveStep(double dt, std::vector<double>& xOut, bool dcMode,
                      double tEvalOverride = -1.0);

    /// Earliest component/external breakpoint in (time_, tMax], or tMax.
    double nextBreakpoint(double tMax);

    /// Largest step hint from components.
    double maxStepHint() const;

    /// Commits an accepted step, bills it to the bound that limited it and
    /// runs probes.
    void acceptStep(const std::vector<double>& x, double dt, obs::StepLimit limit);

    AnalogSystem* sys_;
    SolverOptions options_;
    DenseMatrix A_;
    std::vector<double> rhs_;
    std::vector<std::unique_ptr<CrossingMonitor>> monitors_;
    std::vector<std::function<void(double)>> probes_;
    std::set<double> breakpoints_;

    double time_ = 0.0;
    double dtNext_;
    bool dcDone_ = false;
    Watchdog* watchdog_ = nullptr;
    obs::FlightRecorder* recorder_ = nullptr;
    bool sawNonFinite_ = false; // last trySolveStep failure was non-finite

    // Predictor history for LTE estimation.
    std::vector<double> xPrev_;
    double dtPrev_ = 0.0;
    bool havePrev_ = false;

    // Structural caches, built at construction (the component list is
    // complete by then: the unknown count is fixed there too).
    std::vector<int> integrated_;
    bool anyNonlinear_ = false;

    // Scratch buffers reused across steps (no per-step allocation).
    std::vector<double> bpScratch_;
    std::vector<double> xMid_;
    std::vector<double> xHi_;
    std::vector<std::pair<CrossingMonitor*, bool>> firedScratch_; // monitor, rising

    SolverStats stats_;
};

} // namespace gfi::analog
