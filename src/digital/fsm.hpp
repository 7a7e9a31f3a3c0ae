#pragma once
// Table-driven finite state machine with high-level fault hooks.
//
// Reference [11] of the paper (Leveugle & Hadjiat, JETTA 2003) models SEU
// effects at a level above bit-flips: *erroneous transitions* in a finite
// state machine. TableFsm supports both models: its state register has a
// bit-flip hook like any sequential element, and corruptNextTransition()
// forces an arbitrary (possibly unreachable) next state at the next active
// clock edge.

#include "digital/circuit.hpp"
#include "snapshot/snapshot.hpp"

#include <functional>

namespace gfi::digital {

/// Synchronous Moore/Mealy FSM described by callable next-state and output
/// functions (a transition table is the usual special case). Both functions
/// must be pure: the batch backend copies them into one word model per
/// campaign, and its word groups call them concurrently.
class TableFsm : public Component, public snapshot::Snapshottable {
public:
    /// Computes the next state from (currentState, inputValue).
    using TransitionFn = std::function<int(int, std::uint64_t)>;
    /// Computes the output value from (currentState, inputValue).
    using OutputFn = std::function<std::uint64_t(int, std::uint64_t)>;

    /// @param in          input bus sampled at each rising clock edge.
    /// @param out         output bus driven after each state update.
    /// @param numStates   number of valid states (states are 0..numStates-1).
    /// @param resetState  state entered on asynchronous reset.
    TableFsm(Circuit& c, std::string name, LogicSignal& clk, LogicSignal* rstn, const Bus& in,
             const Bus& out, int numStates, int resetState, TransitionFn nextState,
             OutputFn output, SimTime clkToQ = 200 * kPicosecond);

    /// Current state.
    [[nodiscard]] int state() const noexcept { return state_; }

    /// Overwrites the state immediately and re-drives outputs (SEU on the
    /// state register).
    void forceState(int s);

    /// Arms an erroneous-transition fault: at the next rising clock edge the
    /// FSM goes to @p s regardless of the transition function (reference [11]
    /// style high-level fault).
    void corruptNextTransition(int s)
    {
        forcedNext_ = s;
        hasForcedNext_ = true;
    }

    /// Number of state bits (hook width).
    [[nodiscard]] int stateBits() const noexcept { return stateBits_; }

    /// Structural ports and tables (word-level netlist compilation).
    [[nodiscard]] const LogicSignal* clk() const noexcept { return clk_; }
    [[nodiscard]] const LogicSignal* rstn() const noexcept { return rstn_; }
    [[nodiscard]] const Bus& inBus() const noexcept { return in_; }
    [[nodiscard]] const Bus& outBus() const noexcept { return out_; }
    [[nodiscard]] int numStates() const noexcept { return numStates_; }
    [[nodiscard]] int resetState() const noexcept { return resetState_; }
    [[nodiscard]] const TransitionFn& transitionFn() const noexcept { return nextState_; }
    [[nodiscard]] const OutputFn& outputFn() const noexcept { return output_; }
    [[nodiscard]] SimTime clkToQ() const noexcept { return clkToQ_; }

    void captureState(snapshot::Writer& w) const override
    {
        w.u64(static_cast<std::uint64_t>(state_));
        w.u64(static_cast<std::uint64_t>(forcedNext_));
        w.boolean(hasForcedNext_);
    }

    void restoreState(snapshot::Reader& r) override
    {
        state_ = static_cast<int>(r.u64());
        forcedNext_ = static_cast<int>(r.u64());
        hasForcedNext_ = r.boolean();
    }

private:
    void drive();

    int state_;
    int numStates_;
    int resetState_;
    int stateBits_;
    int forcedNext_ = 0;
    bool hasForcedNext_ = false;
    LogicSignal* clk_ = nullptr;
    LogicSignal* rstn_ = nullptr;
    TransitionFn nextState_;
    OutputFn output_;
    Bus in_;
    Bus out_;
    SimTime clkToQ_;
};

} // namespace gfi::digital
