#pragma once
// Kernel probe snapshot: one coherent reading of the always-on kernel
// counters (digital scheduler, analog solver, AMS bridges) of a single
// simulator instance.
//
// The campaign engine samples a baseline right before a run starts (after a
// possible checkpoint restore, whose restored counters would otherwise be
// billed to the run) and a final reading when the run ends — including runs
// that end by unwinding on a watchdog timeout, which is exactly when the
// reading matters most ("why did this run stall?"). delta() of the two is the
// run's own deterministic resource consumption: it depends only on the
// simulated work, never on worker count or wall clock, which is what makes
// campaign metric counts reproducible at any parallel width.

#include <array>
#include <cstdint>
#include <string>

namespace gfi::obs {

/// The bound that set an accepted analog step's size: the smallest of the
/// candidates TransientSolver::advanceTo takes a step's size from, or the
/// crossing that cut it. Ties go to the later entry (a step grown up to
/// dtMax counts as dtMax-limited).
enum class StepLimit : std::uint8_t {
    Lte,        ///< the solver's own step control: LTE, growth limit, Newton retries
    DtMax,      ///< SolverOptions::dtMax
    Hint,       ///< a component's maxStep hint
    Breakpoint, ///< a breakpoint or the advanceTo stop time
    Crossing,   ///< cut at a located threshold crossing
};

/// Accepted steps per StepLimit, indexed by its value.
using StepLimitCounts = std::array<std::uint64_t, 5>;

/// Metric-name form of a StepLimit ("lte", "dt_max", "hint", ...).
[[nodiscard]] constexpr const char* toString(StepLimit l) noexcept
{
    constexpr std::array<const char*, 5> kNames{"lte", "dt_max", "hint", "breakpoint",
                                                "crossing"};
    return kNames[static_cast<std::size_t>(l)];
}

/// One reading of a simulator's kernel counters. For per-run deltas the
/// counter fields subtract; the level fields (queue depth high-water, min
/// accepted step) are taken from the final reading as-is.
struct ProbeSnapshot {
    bool valid = false; ///< false = never sampled (e.g. testbench build threw)

    // Digital scheduler.
    std::uint64_t digitalEvents = 0;     ///< queue entries executed
    std::uint64_t deltaCycles = 0;       ///< waves run
    std::uint64_t queueHighWater = 0;    ///< max pending queue depth observed
    std::uint64_t pendingEvents = 0;     ///< queue depth at sample time

    // Analog solver (all zero for purely digital designs).
    std::uint64_t analogAcceptedSteps = 0;
    std::uint64_t analogRejectedSteps = 0;
    std::uint64_t newtonIterations = 0;
    std::uint64_t companionRebuilds = 0; ///< discontinuity restarts
    std::uint64_t crossingFallbacks = 0; ///< crossings the locator bisected (not journaled)
    StepLimitCounts stepsLimitedBy{};    ///< accepted steps per limiting bound (not journaled)
    double minAcceptedDt = 0.0;          ///< smallest accepted step (s); 0 = none
    double lastAcceptedDt = 0.0;         ///< most recent accepted step (s)

    // AMS bridges.
    std::uint64_t atodCrossings = 0; ///< analog->digital threshold firings
    std::uint64_t dtoaEvents = 0;    ///< digital->analog drive updates

    /// This reading minus @p baseline for the monotone counters; level fields
    /// keep this reading's values. Both snapshots must be valid.
    [[nodiscard]] ProbeSnapshot delta(const ProbeSnapshot& baseline) const
    {
        ProbeSnapshot d = *this;
        auto sub = [](std::uint64_t a, std::uint64_t b) { return a >= b ? a - b : 0; };
        d.digitalEvents = sub(digitalEvents, baseline.digitalEvents);
        d.deltaCycles = sub(deltaCycles, baseline.deltaCycles);
        d.analogAcceptedSteps = sub(analogAcceptedSteps, baseline.analogAcceptedSteps);
        d.analogRejectedSteps = sub(analogRejectedSteps, baseline.analogRejectedSteps);
        d.newtonIterations = sub(newtonIterations, baseline.newtonIterations);
        d.companionRebuilds = sub(companionRebuilds, baseline.companionRebuilds);
        d.crossingFallbacks = sub(crossingFallbacks, baseline.crossingFallbacks);
        for (std::size_t i = 0; i < stepsLimitedBy.size(); ++i) {
            d.stepsLimitedBy[i] = sub(stepsLimitedBy[i], baseline.stepsLimitedBy[i]);
        }
        d.atodCrossings = sub(atodCrossings, baseline.atodCrossings);
        d.dtoaEvents = sub(dtoaEvents, baseline.dtoaEvents);
        return d;
    }

    /// One-line human summary for stall diagnostics ("why did the watchdog
    /// fire?"): the last solver step sizes and the scheduler queue state.
    [[nodiscard]] std::string stallSummary() const
    {
        if (!valid) {
            return "no probe data";
        }
        std::string s = "queue depth " + std::to_string(pendingEvents) + " (high-water " +
                        std::to_string(queueHighWater) + "), " +
                        std::to_string(deltaCycles) + " waves";
        if (analogAcceptedSteps + analogRejectedSteps > 0) {
            s += ", solver " + std::to_string(analogAcceptedSteps) + " accepted / " +
                 std::to_string(analogRejectedSteps) + " rejected steps, last dt " +
                 std::to_string(lastAcceptedDt) + " s, min dt " +
                 std::to_string(minAcceptedDt) + " s";
        }
        return s;
    }
};

} // namespace gfi::obs
