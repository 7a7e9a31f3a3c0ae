#include "ams/mixed_sim.hpp"

#include "obs/flight_recorder.hpp"

#include <algorithm>

namespace gfi::ams {

void MixedSimulator::setWatchdog(Watchdog* wd)
{
    watchdog_ = wd;
    digital_.scheduler().setWatchdog(wd);
    if (solver_) {
        solver_->setWatchdog(wd);
    }
}

void MixedSimulator::setFlightRecorder(obs::FlightRecorder* fr)
{
    recorder_ = fr;
    digital_.scheduler().setFlightRecorder(fr);
    if (solver_) {
        solver_->setFlightRecorder(fr);
    }
}

void MixedSimulator::elaborate(analog::SolverOptions options)
{
    if (solver_) {
        return;
    }
    if (stepScale_ != 1.0) {
        // Retry tightening: smaller maximum/restart steps, same floors.
        options.dtMax = std::max(options.dtMax * stepScale_, options.dtMin);
        options.dtInitial = std::max(options.dtInitial * stepScale_, options.dtMin);
    }
    solver_ = std::make_unique<analog::TransientSolver>(analog_, options);
    solver_->setWatchdog(watchdog_);
    solver_->setFlightRecorder(recorder_);
    solver_->solveDc();
    for (auto& hook : elaborationHooks_) {
        hook(*solver_);
    }
    // Bridges may have forced digital values from the DC solution; settle the
    // resulting delta cycles before time moves.
    digital_.scheduler().start();
}

namespace {

/// Snapshottable digital components, registration order. Exempt components
/// (pure combinational, ROMs, structural shells) carry no state and are
/// skipped; a stateful non-Snapshottable component is a preflight error
/// (PRE006), not a silent gap.
snapshot::SnapshotRegistry digitalRegistry(const digital::Circuit& c)
{
    snapshot::SnapshotRegistry reg;
    for (const auto& comp : c.components()) {
        if (auto* s = dynamic_cast<snapshot::Snapshottable*>(comp.get())) {
            reg.add(comp->name(), s);
        }
    }
    return reg;
}

/// All analog components, registration order. Stateless ones serialize an
/// empty payload through the default AnalogComponent hooks.
snapshot::SnapshotRegistry analogRegistry(const analog::AnalogSystem& sys)
{
    snapshot::SnapshotRegistry reg;
    for (const auto& comp : sys.components()) {
        reg.add(comp->name(), comp.get());
    }
    return reg;
}

} // namespace

snapshot::Snapshot MixedSimulator::captureSnapshot()
{
    elaborate();
    return capture();
}

snapshot::Snapshot MixedSimulator::capturePreStartSnapshot() const
{
    if (elaborated() || digital_.scheduler().started()) {
        throw std::logic_error("MixedSimulator: a pre-start snapshot needs a never-run simulator");
    }
    if (analog_.unknownCount() > 0) {
        throw std::logic_error(
            "MixedSimulator: a pre-start snapshot needs a purely digital design");
    }
    return capture();
}

snapshot::Snapshot MixedSimulator::capture() const
{
    snapshot::Writer w;
    snapshot::writeHeader(w);
    w.boolean(elaborated());

    digital_.scheduler().captureState(w);

    // Signals, creation order; each payload length-prefixed and name-tagged.
    const auto& signals = digital_.signals();
    w.u64(signals.size());
    for (const digital::SignalBase* sig : signals) {
        w.str(sig->name());
        const std::size_t mark = w.beginBlob();
        sig->captureState(w);
        w.endBlob(mark);
    }

    digitalRegistry(digital_).capture(w);
    extraState_.capture(w);

    const bool hasAnalog = elaborated() && analog_.unknownCount() > 0;
    w.boolean(hasAnalog);
    if (hasAnalog) {
        const std::size_t mark = w.beginBlob();
        solver_->captureState(w);
        w.endBlob(mark);
        analogRegistry(analog_).capture(w);
    }

    snapshot::Snapshot snap;
    snap.time = digital_.scheduler().now();
    snap.analogTime = hasAnalog ? solver_->time() : 0.0;
    snap.bytes = w.take();
    return snap;
}

void MixedSimulator::restoreSnapshot(const snapshot::Snapshot& snap)
{
    snapshot::Reader r(snap.bytes);
    snapshot::readHeader(r);
    if (r.boolean()) {
        elaborate();
    } else {
        if (analog_.unknownCount() > 0) {
            throw snapshot::SnapshotFormatError(
                "snapshot: pre-start capture restored into a design with analog unknowns");
        }
        // Back to the as-built state: the next run() elaborates afresh, as on
        // a new build, and the fresh solver counts only that elaboration.
        solver_.reset();
    }

    digital_.scheduler().restoreState(
        r, [this](const std::string& name) -> digital::SignalBase& {
            try {
                return digital_.findSignal(name);
            } catch (const std::out_of_range&) {
                throw snapshot::SnapshotFormatError(
                    "snapshot: pending transaction targets unknown signal '" + name +
                    "' (testbench factory mismatch?)");
            }
        });

    const std::uint64_t n = r.u64();
    const auto& signals = digital_.signals();
    if (n != signals.size()) {
        throw snapshot::SnapshotFormatError(
            "snapshot: stream has " + std::to_string(n) + " signals, circuit has " +
            std::to_string(signals.size()) + " (testbench factory mismatch?)");
    }
    for (digital::SignalBase* sig : signals) {
        const std::string_view name = r.strView();
        if (name != sig->name()) {
            throw snapshot::SnapshotFormatError("snapshot: signal '" + std::string(name) +
                                                "' where '" + sig->name() + "' was expected");
        }
        snapshot::Reader sub = r.blobReader();
        sig->restoreState(sub);
        if (!sub.atEnd()) {
            throw snapshot::SnapshotFormatError("snapshot: signal '" + sig->name() + "' left " +
                                                std::to_string(sub.remaining()) +
                                                " unread payload bytes");
        }
    }

    digitalRegistry(digital_).restore(r);
    extraState_.restore(r);

    const bool hasAnalog = r.boolean();
    if (hasAnalog != (elaborated() && analog_.unknownCount() > 0)) {
        throw snapshot::SnapshotFormatError(
            "snapshot: analog-domain presence differs from the capture");
    }
    if (hasAnalog) {
        snapshot::Reader sub = r.blobReader();
        solver_->restoreState(sub);
        if (!sub.atEnd()) {
            throw snapshot::SnapshotFormatError(
                "snapshot: solver left " + std::to_string(sub.remaining()) +
                " unread payload bytes");
        }
        analogRegistry(analog_).restore(r);
    }

    if (!r.atEnd()) {
        throw snapshot::SnapshotFormatError("snapshot: " + std::to_string(r.remaining()) +
                                            " trailing bytes after restore");
    }
    // A pre-start restore is a rebuild, and a fresh build records nothing.
    if (recorder_ != nullptr && elaborated()) {
        recorder_->record(obs::FlightRecorder::Kind::Restore, snap.time, snap.analogTime,
                          0, 0, 0.0);
    }
}

obs::ProbeSnapshot MixedSimulator::sampleProbes() const
{
    obs::ProbeSnapshot p;
    p.valid = true;
    const auto& sched = digital_.scheduler();
    p.digitalEvents = sched.eventsDispatched();
    p.deltaCycles = sched.deltaCycles();
    p.queueHighWater = sched.queueHighWater();
    p.pendingEvents = sched.pendingEvents();
    if (solver_) {
        const analog::SolverStats& s = solver_->stats();
        p.analogAcceptedSteps = s.acceptedSteps;
        p.analogRejectedSteps = s.rejectedSteps;
        p.newtonIterations = s.newtonIterations;
        p.companionRebuilds = s.companionRebuilds;
        p.crossingFallbacks = s.crossingFallbacks;
        p.minAcceptedDt = s.minAcceptedDt;
        p.lastAcceptedDt = s.lastAcceptedDt;
    }
    p.atodCrossings = bridgeCounters_.atodCrossings;
    p.dtoaEvents = bridgeCounters_.dtoaEvents;
    return p;
}

void MixedSimulator::run(SimTime until)
{
    elaborate();
    auto& sched = digital_.scheduler();

    // If the design is purely digital, fall through to the event kernel.
    const bool hasAnalog = analog_.unknownCount() > 0;

    while (true) {
        if (watchdog_ != nullptr) {
            watchdog_->checkWallClock();
        }
        const SimTime nextDigital = sched.nextEventTime();
        const SimTime target = nextDigital < until ? nextDigital : until;

        if (hasAnalog) {
            const double tGoal = toSeconds(target);
            while (solver_->time() < tGoal - 1e-18) {
                const double reached = solver_->advanceTo(tGoal);
                if (reached < tGoal - 1e-18) {
                    // A monitor fired: its bridge already advanced the digital
                    // clock to the crossing and ran deltas. A new digital
                    // event may now precede `target`; re-evaluate.
                    break;
                }
            }
            if (solver_->time() < tGoal - 1e-18) {
                continue; // re-enter with updated digital horizon
            }
        }

        if (target >= until) {
            sched.runUntil(until);
            break;
        }
        sched.runUntil(target);
    }
}

} // namespace gfi::ams
