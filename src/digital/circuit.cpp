#include "digital/circuit.hpp"

namespace gfi::digital {

std::uint64_t Bus::toUint(bool* allKnown) const
{
    std::uint64_t value = 0;
    bool known = true;
    for (std::size_t i = 0; i < bits_.size(); ++i) {
        const Logic v = bits_[i]->value();
        if (isKnown01(v)) {
            value |= static_cast<std::uint64_t>(toBool(v)) << i;
        } else {
            known = false;
        }
    }
    if (allKnown != nullptr) {
        *allKnown = known;
    }
    return value;
}

void Bus::scheduleUint(std::uint64_t value, SimTime delay) const
{
    for (std::size_t i = 0; i < bits_.size(); ++i) {
        bits_[i]->scheduleInertial(fromBool(((value >> i) & 1u) != 0), delay);
    }
}

void Bus::forceUint(std::uint64_t value) const
{
    for (std::size_t i = 0; i < bits_.size(); ++i) {
        bits_[i]->forceValue(fromBool(((value >> i) & 1u) != 0));
    }
}

std::string Bus::str() const
{
    std::string s;
    s.reserve(bits_.size());
    for (auto it = bits_.rbegin(); it != bits_.rend(); ++it) {
        s += toChar((*it)->value());
    }
    return s;
}

Bus Circuit::bus(const std::string& name, int width, Logic initial)
{
    std::vector<LogicSignal*> bits;
    bits.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
        bits.push_back(&logicSignal(name + "[" + std::to_string(i) + "]", initial));
    }
    return Bus{std::move(bits)};
}

LogicSignal& Circuit::findLogic(const std::string& name) const
{
    const auto it = signals_.find(name);
    if (it == signals_.end()) {
        throw std::out_of_range("Circuit: unknown signal '" + name + "'");
    }
    auto* sig = dynamic_cast<LogicSignal*>(it->second.get());
    if (sig == nullptr) {
        throw std::out_of_range("Circuit: signal '" + name + "' is not a logic signal");
    }
    return *sig;
}

SignalBase& Circuit::findSignal(const std::string& name) const
{
    const auto it = signals_.find(name);
    if (it == signals_.end()) {
        throw std::out_of_range("Circuit: unknown signal '" + name + "'");
    }
    return *it->second;
}

Process& Circuit::process(const std::string& name, std::function<void()> fn,
                          std::initializer_list<SignalBase*> sensitivity)
{
    return process(name, std::move(fn), std::vector<SignalBase*>(sensitivity));
}

Process& Circuit::process(const std::string& name, std::function<void()> fn,
                          const std::vector<SignalBase*>& sensitivity)
{
    auto proc = std::make_unique<Process>(name, std::move(fn));
    Process& ref = *proc;
    processes_.push_back(std::move(proc));
    for (SignalBase* s : sensitivity) {
        s->addListener(&ref);
    }
    sched_.registerProcess(&ref);

    ProcessConnectivity conn;
    conn.process = &ref;
    conn.triggers = sensitivity;
    connIndex_[&ref] = connectivity_.size();
    connectivity_.push_back(std::move(conn));
    return ref;
}

ProcessConnectivity& Circuit::connOf(Process& p)
{
    const auto it = connIndex_.find(&p);
    if (it == connIndex_.end()) {
        throw std::logic_error("Circuit: process '" + p.name() +
                               "' was not created by this circuit");
    }
    return connectivity_[it->second];
}

void Circuit::noteDrives(Process& p, const std::vector<SignalBase*>& signals)
{
    auto& drives = connOf(p).drives;
    drives.insert(drives.end(), signals.begin(), signals.end());
}

void Circuit::noteReads(Process& p, const std::vector<SignalBase*>& signals)
{
    auto& reads = connOf(p).reads;
    reads.insert(reads.end(), signals.begin(), signals.end());
}

void Circuit::noteSequential(Process& p, SignalBase* clock)
{
    ProcessConnectivity& conn = connOf(p);
    conn.sequential = true;
    conn.clock = clock;
}

void Circuit::noteCombKind(Process& p, CombKind kind, SimTime delay)
{
    ProcessConnectivity& conn = connOf(p);
    conn.combKind = kind;
    conn.combDelay = delay;
}

std::vector<SignalBase*> busSignals(const Bus& bus)
{
    return {bus.bits().begin(), bus.bits().end()};
}

void Circuit::registerSignal(const std::string& name, std::unique_ptr<SignalBase> sig)
{
    if (signals_.count(name) != 0) {
        throw std::invalid_argument("Circuit: duplicate signal '" + name + "'");
    }
    sig->index_ = signalList_.size();
    signalList_.push_back(sig.get());
    signals_.emplace(name, std::move(sig));
    signalOrder_.push_back(name);
}

} // namespace gfi::digital
