#include "digital/gates.hpp"

#include <stdexcept>

namespace gfi::digital {

Gate::Gate(Circuit& c, std::string name, GateKind kind, std::vector<LogicSignal*> inputs,
           LogicSignal& output, SimTime delay)
    : Component(std::move(name)), kind_(kind), inputs_(std::move(inputs)), output_(&output),
      delay_(delay)
{
    if (inputs_.empty()) {
        throw std::invalid_argument("Gate '" + this->name() + "': needs at least one input");
    }
    if ((kind_ == GateKind::Buf || kind_ == GateKind::Not) && inputs_.size() != 1) {
        throw std::invalid_argument("Gate '" + this->name() + "': Buf/Not take one input");
    }
    std::vector<SignalBase*> sens(inputs_.begin(), inputs_.end());
    Process& p = c.process(
        this->name() + "/eval", [this] { output_->scheduleInertial(evaluate(), delay_); },
        sens);
    c.noteDrives(p, {output_});
    if (kind_ == GateKind::Buf) {
        c.noteCombKind(p, CombKind::Buffer, delay_);
    } else if (kind_ == GateKind::Not) {
        c.noteCombKind(p, CombKind::Inverter, delay_);
    }
}

Logic Gate::evaluate() const noexcept
{
    Logic acc = inputs_.front()->value();
    Logic (*op)(Logic, Logic) noexcept = nullptr;
    switch (kind_) {
    case GateKind::Buf:
        return toX01(acc);
    case GateKind::Not:
        return logicNot(acc);
    case GateKind::And:
    case GateKind::Nand:
        op = logicAnd;
        break;
    case GateKind::Or:
    case GateKind::Nor:
        op = logicOr;
        break;
    case GateKind::Xor:
    case GateKind::Xnor:
        op = logicXor;
        break;
    }
    for (std::size_t i = 1; i < inputs_.size(); ++i) {
        acc = op(acc, inputs_[i]->value());
    }
    switch (kind_) {
    case GateKind::Nand:
    case GateKind::Nor:
    case GateKind::Xnor:
        return logicNot(acc);
    default:
        return toX01(acc);
    }
}

Mux2::Mux2(Circuit& c, std::string name, LogicSignal& a, LogicSignal& b, LogicSignal& sel,
           LogicSignal& y, SimTime delay)
    : Component(std::move(name))
{
    Process& p = c.process(this->name() + "/eval",
                           [&a, &b, &sel, &y, delay] {
                               const Logic s = toX01(sel.value());
                               Logic out = Logic::X;
                               if (s == Logic::Zero) {
                                   out = toX01(a.value());
                               } else if (s == Logic::One) {
                                   out = toX01(b.value());
                               } else if (toX01(a.value()) == toX01(b.value())) {
                                   out = toX01(a.value()); // both branches agree: sel unknown is harmless
                               }
                               y.scheduleInertial(out, delay);
                           },
                           {&a, &b, &sel});
    c.noteDrives(p, {&y});
}

} // namespace gfi::digital
