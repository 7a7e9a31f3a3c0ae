#pragma once
// Combinational component library: gates, buffers and multiplexers.
//
// Every gate is a Component that instantiates one process sensitive to its
// inputs and drives its output with inertial delay — the standard behavioral
// idiom the paper's digital flow instruments.

#include "digital/circuit.hpp"

#include <vector>

namespace gfi::digital {

/// Default combinational propagation delay.
inline constexpr SimTime kDefaultGateDelay = 100 * kPicosecond;

/// N-input gate kinds sharing one implementation.
enum class GateKind { And, Or, Nand, Nor, Xor, Xnor, Buf, Not };

/// Generic N-input logic gate (Buf/Not take exactly one input).
class Gate : public Component {
public:
    /// Builds the gate and registers its evaluation process in @p c.
    Gate(Circuit& c, std::string name, GateKind kind, std::vector<LogicSignal*> inputs,
         LogicSignal& output, SimTime delay = kDefaultGateDelay);

    /// Combinational function of this gate over its inputs' current values.
    [[nodiscard]] Logic evaluate() const noexcept;

    /// Pure combinational: outputs re-derive from restored inputs.
    [[nodiscard]] bool snapshotExempt() const noexcept override { return true; }

    /// Structural ports (word-level netlist compilation).
    [[nodiscard]] GateKind kind() const noexcept { return kind_; }
    [[nodiscard]] const std::vector<LogicSignal*>& inputs() const noexcept { return inputs_; }
    [[nodiscard]] const LogicSignal* output() const noexcept { return output_; }
    [[nodiscard]] SimTime delay() const noexcept { return delay_; }

private:
    GateKind kind_;
    std::vector<LogicSignal*> inputs_;
    LogicSignal* output_;
    SimTime delay_;
};

/// Two-input AND convenience wrapper.
class AndGate : public Gate {
public:
    AndGate(Circuit& c, std::string name, LogicSignal& a, LogicSignal& b, LogicSignal& y,
            SimTime delay = kDefaultGateDelay)
        : Gate(c, std::move(name), GateKind::And, {&a, &b}, y, delay)
    {
    }
};

/// Two-input OR convenience wrapper.
class OrGate : public Gate {
public:
    OrGate(Circuit& c, std::string name, LogicSignal& a, LogicSignal& b, LogicSignal& y,
           SimTime delay = kDefaultGateDelay)
        : Gate(c, std::move(name), GateKind::Or, {&a, &b}, y, delay)
    {
    }
};

/// Two-input XOR convenience wrapper.
class XorGate : public Gate {
public:
    XorGate(Circuit& c, std::string name, LogicSignal& a, LogicSignal& b, LogicSignal& y,
            SimTime delay = kDefaultGateDelay)
        : Gate(c, std::move(name), GateKind::Xor, {&a, &b}, y, delay)
    {
    }
};

/// Inverter convenience wrapper.
class NotGate : public Gate {
public:
    NotGate(Circuit& c, std::string name, LogicSignal& a, LogicSignal& y,
            SimTime delay = kDefaultGateDelay)
        : Gate(c, std::move(name), GateKind::Not, {&a}, y, delay)
    {
    }
};

/// Buffer convenience wrapper.
class BufGate : public Gate {
public:
    BufGate(Circuit& c, std::string name, LogicSignal& a, LogicSignal& y,
            SimTime delay = kDefaultGateDelay)
        : Gate(c, std::move(name), GateKind::Buf, {&a}, y, delay)
    {
    }
};

/// Two-to-one single-bit multiplexer: y = sel ? b : a.
class Mux2 : public Component {
public:
    Mux2(Circuit& c, std::string name, LogicSignal& a, LogicSignal& b, LogicSignal& sel,
         LogicSignal& y, SimTime delay = kDefaultGateDelay);

    [[nodiscard]] bool snapshotExempt() const noexcept override { return true; }
};

} // namespace gfi::digital
