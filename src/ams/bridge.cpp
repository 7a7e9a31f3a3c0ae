#include "ams/bridge.hpp"

#include "obs/flight_recorder.hpp"

namespace gfi::ams {

// ---------------------------------------------------------------------------
// AtoDBridge

AtoDBridge::AtoDBridge(MixedSimulator& sim, std::string name, analog::NodeId node,
                       digital::LogicSignal& out, double threshold, double hysteresis)
    : name_(std::move(name)), node_(node), out_(&out), threshold_(threshold),
      hysteresis_(hysteresis)
{
    sim.digital().noteExternalDriver(out); // forced from the analog domain
    sim.stateRegistry().add(name_, this);
    sim.onElaborate([this, &sim](analog::TransientSolver& solver) {
        // Initial digital value from the DC operating point.
        const double v0 = sim.analog().voltage(node_);
        high_ = v0 >= threshold_;
        out_->forceValue(high_ ? digital::Logic::One : digital::Logic::Zero);

        const double hi = threshold_ + hysteresis_ / 2.0;
        const double lo = threshold_ - hysteresis_ / 2.0;
        solver.addMonitor(node_, hi, analog::CrossingMonitor::Edge::Rising,
                          [this, &sim](double t, bool) { fire(sim, t, true); });
        solver.addMonitor(node_, lo, analog::CrossingMonitor::Edge::Falling,
                          [this, &sim](double t, bool) { fire(sim, t, false); });
    });
}

void AtoDBridge::fire(MixedSimulator& sim, double tCross, bool rising)
{
    if (rising == high_) {
        return; // hysteresis: already in that state
    }
    high_ = rising;
    ++sim.bridgeCounters().atodCrossings;
    auto& sched = sim.digital().scheduler();
    const SimTime tFs = fromSeconds(tCross);
    if (auto* fr = sim.flightRecorder()) {
        fr->record(obs::FlightRecorder::Kind::AtoD, tFs, tCross,
                   sim.bridgeCounters().atodCrossings, 0, rising ? 1.0 : 0.0);
    }
    // No digital events exist before tCross (the synchronizer guarantees it),
    // so advancing the digital clock here only moves time.
    sched.runUntil(tFs > sched.now() ? tFs : sched.now());
    out_->forceValue(rising ? digital::Logic::One : digital::Logic::Zero);
    sched.runDeltasNow();
}

// ---------------------------------------------------------------------------
// DtoABridge

DtoABridge::DtoABridge(MixedSimulator& sim, std::string name, digital::LogicSignal& in,
                       analog::NodeId node, double lowVolts, double highVolts,
                       double slewSeconds)
    : name_(std::move(name)), in_(&in), low_(lowVolts), high_(highVolts), slew_(slewSeconds),
      currentLevel_(lowVolts)
{
    source_ = &sim.analog().add<analog::VoltageSource>(sim.analog(), name_ + "/vsrc", node,
                                                       analog::kGround, lowVolts);
    sim.stateRegistry().add(name_, this);
    digital::SignalWatch::onEvent(in, [this, &sim] { drive(sim); });
    sim.onElaborate([this, &sim](analog::TransientSolver&) {
        // Pick up the digital value present at elaboration.
        drive(sim);
    });
}

void DtoABridge::drive(MixedSimulator& sim)
{
    const digital::Logic v = digital::toX01(in_->value());
    const double target = v == digital::Logic::One
                              ? high_
                              : (v == digital::Logic::Zero ? low_ : (low_ + high_) / 2.0);
    if (target == currentLevel_) {
        return;
    }
    ++sim.bridgeCounters().dtoaEvents;
    if (auto* fr = sim.flightRecorder()) {
        fr->record(obs::FlightRecorder::Kind::DtoA, sim.now(),
                   sim.elaborated() ? sim.solver().time() : 0.0,
                   sim.bridgeCounters().dtoaEvents, 0, target);
    }
    if (!sim.elaborated()) {
        currentLevel_ = target;
        source_->setLevel(target);
        return;
    }
    auto& solver = sim.solver();
    const double tNow = solver.time();
    if (slew_ <= 0.0) {
        source_->setLevel(target);
    } else {
        const double from = currentLevel_;
        const double to = target;
        const double t0 = tNow;
        const double tr = slew_;
        analog::TimeFunction fn;
        fn.value = [from, to, t0, tr](double t) {
            if (t <= t0) {
                return from;
            }
            if (t >= t0 + tr) {
                return to;
            }
            return from + (to - from) * (t - t0) / tr;
        };
        fn.breakpoints = {t0, t0 + tr};
        source_->setFunction(std::move(fn));
    }
    currentLevel_ = target;
    solver.markDiscontinuity();
}

// ---------------------------------------------------------------------------
// DigitalVoltageDriver

DigitalVoltageDriver::DigitalVoltageDriver(MixedSimulator& sim, std::string name,
                                           std::vector<digital::LogicSignal*> inputs,
                                           analog::NodeId node, LevelFn level)
    : name_(std::move(name)), inputs_(std::move(inputs)), level_(std::move(level))
{
    source_ = &sim.analog().add<analog::VoltageSource>(sim.analog(), name_ + "/vsrc", node,
                                                       analog::kGround, 0.0);
    sim.stateRegistry().add(name_, this);
    for (digital::LogicSignal* in : inputs_) {
        digital::SignalWatch::onEvent(*in, [this, &sim] { drive(sim); });
    }
    sim.onElaborate([this, &sim](analog::TransientSolver&) { drive(sim); });
}

void DigitalVoltageDriver::drive(MixedSimulator& sim)
{
    std::vector<digital::Logic> values;
    values.reserve(inputs_.size());
    for (const digital::LogicSignal* in : inputs_) {
        values.push_back(in->value());
    }
    const double target = level_(values);
    if (target == currentLevel_) {
        return;
    }
    ++sim.bridgeCounters().dtoaEvents;
    if (auto* fr = sim.flightRecorder()) {
        fr->record(obs::FlightRecorder::Kind::DtoA, sim.now(),
                   sim.elaborated() ? sim.solver().time() : 0.0,
                   sim.bridgeCounters().dtoaEvents, 0, target);
    }
    currentLevel_ = target;
    source_->setLevel(target);
    if (sim.elaborated()) {
        sim.solver().markDiscontinuity();
    }
}

// ---------------------------------------------------------------------------
// DigitalCurrentDriver

DigitalCurrentDriver::DigitalCurrentDriver(MixedSimulator& sim, std::string name,
                                           std::vector<digital::LogicSignal*> inputs,
                                           analog::NodeId node, LevelFn level)
    : name_(std::move(name)), inputs_(std::move(inputs)), level_(std::move(level))
{
    source_ = &sim.analog().add<analog::CurrentSource>(sim.analog(), name_ + "/isrc", node,
                                                       analog::kGround, 0.0);
    sim.stateRegistry().add(name_, this);
    for (digital::LogicSignal* in : inputs_) {
        digital::SignalWatch::onEvent(*in, [this, &sim] { drive(sim); });
    }
    sim.onElaborate([this, &sim](analog::TransientSolver&) { drive(sim); });
}

void DigitalCurrentDriver::drive(MixedSimulator& sim)
{
    std::vector<digital::Logic> values;
    values.reserve(inputs_.size());
    for (const digital::LogicSignal* in : inputs_) {
        values.push_back(in->value());
    }
    const double target = level_(values);
    if (target == currentLevel_) {
        return;
    }
    ++sim.bridgeCounters().dtoaEvents;
    if (auto* fr = sim.flightRecorder()) {
        fr->record(obs::FlightRecorder::Kind::DtoA, sim.now(),
                   sim.elaborated() ? sim.solver().time() : 0.0,
                   sim.bridgeCounters().dtoaEvents, 0, target);
    }
    currentLevel_ = target;
    source_->setLevel(target);
    if (sim.elaborated()) {
        sim.solver().markDiscontinuity();
    }
}

} // namespace gfi::ams
