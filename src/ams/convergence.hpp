#pragma once
// Convergence exit: golden's side of the check that ends a transient run once
// its state is golden's again (DESIGN.md §9 "Convergence exit").
//
// The kernels are deterministic, so a purely digital run whose canonical
// state (MixedSimulator::canonicalState) equals golden's at the same instant
// replays golden's suffix bit for bit. A ConvergencePlan holds what a run
// needs to skip that suffix: golden's event times, golden's canonical state
// and kernel counters at the instants runs check, the deepest queue after
// each of them, and golden's final snapshot and counters. It is built once
// per campaign by replaying golden on a twin testbench and is shared
// read-only by every worker.

#include "ams/mixed_sim.hpp"

#include <cstdint>
#include <vector>

namespace gfi::ams {

class ConvergencePlan {
public:
    /// Golden at one check instant ("mark").
    struct Mark {
        SimTime time = 0;
        std::vector<std::uint8_t> state;         ///< canonical state
        digital::Scheduler::Counters counters;   ///< kernel counters
        BridgeCounters bridges;                  ///< bridge counters
        std::uint64_t suffixHighWater = 0;       ///< deepest queue after the mark
    };

    /// Replays golden on @p twin — a never-run build of golden's design with
    /// no analog unknowns — from one golden event time to the next up to
    /// @p duration, keeping a Mark wherever a run whose fault's last action
    /// is one of @p lastActions checks (the 1st, 2nd, 4th, ... event time
    /// after it, before @p duration; kMaxMarkBytes at most). Leaves @p twin
    /// at @p duration.
    [[nodiscard]] static ConvergencePlan record(MixedSimulator& twin, SimTime duration,
                                                std::vector<SimTime> lastActions);

    /// Golden's duration: only run(until >= duration) calls check.
    [[nodiscard]] SimTime duration() const noexcept { return duration_; }

    /// Golden's event times, ascending.
    [[nodiscard]] const std::vector<SimTime>& eventTimes() const noexcept { return eventTimes_; }

    /// The mark at @p t, or null when no recorded fault checks there.
    [[nodiscard]] const Mark* markAt(SimTime t) const noexcept;

    /// Golden's state at duration() and its counters there.
    [[nodiscard]] const snapshot::Snapshot& finalSnapshot() const noexcept { return final_; }
    [[nodiscard]] const digital::Scheduler::Counters& finalCounters() const noexcept
    {
        return finalCounters_;
    }
    [[nodiscard]] const BridgeCounters& finalBridges() const noexcept { return finalBridges_; }

    /// The canonical states a plan keeps, in bytes at most: past it the
    /// later marks are not kept (a fault list spread over many injection
    /// instants would otherwise copy golden's state at nearly every event).
    static constexpr std::size_t kMaxMarkBytes = std::size_t{64} << 20;

    /// True for the event-time ordinals a run checks: 1, 2, 4, 8, ...
    [[nodiscard]] static constexpr bool isCheckOrdinal(std::uint64_t k) noexcept
    {
        return k != 0 && (k & (k - 1)) == 0;
    }

private:
    SimTime duration_ = 0;
    std::vector<SimTime> eventTimes_;
    std::vector<Mark> marks_; ///< ascending time
    snapshot::Snapshot final_;
    digital::Scheduler::Counters finalCounters_;
    BridgeCounters finalBridges_;
};

} // namespace gfi::ams
