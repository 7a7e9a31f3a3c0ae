#include "ams/mixed_sim.hpp"

#include "ams/convergence.hpp"
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

const snapshot::SnapshotRegistry& MixedSimulator::digitalRegistry() const
{
    // Snapshottable digital components, registration order. Exempt
    // components (pure combinational, ROMs, structural shells) carry no state
    // and are skipped; a stateful non-Snapshottable component is a preflight
    // error (PRE006), not a silent gap. Components are only ever added, so
    // the count says whether the cached list is current.
    CachedRegistry& cache = digitalRegistry_;
    const auto& comps = digital_.components();
    if (cache.builtFor != comps.size()) {
        cache.registry = {};
        for (const auto& comp : comps) {
            if (auto* s = dynamic_cast<snapshot::Snapshottable*>(comp.get())) {
                cache.registry.add(comp->name(), s);
            }
        }
        cache.builtFor = comps.size();
    }
    return cache.registry;
}

const snapshot::SnapshotRegistry& MixedSimulator::analogRegistry() const
{
    // All analog components, registration order. Stateless ones serialize
    // an empty payload through the default AnalogComponent hooks.
    CachedRegistry& cache = analogRegistry_;
    const auto& comps = analog_.components();
    if (cache.builtFor != comps.size()) {
        cache.registry = {};
        for (const auto& comp : comps) {
            cache.registry.add(comp->name(), comp.get());
        }
        cache.builtFor = comps.size();
    }
    return cache.registry;
}

std::uint64_t MixedSimulator::layoutDigest() const
{
    const std::array<std::size_t, 4> sizes{digital_.signals().size(),
                                           digital_.components().size(), extraState_.size(),
                                           analog_.components().size()};
    if (layout_ == 0 || sizes != layoutFor_) {
        snapshot::LayoutDigest d;
        d.mix(sizes[0]);
        for (const digital::SignalBase* sig : digital_.signals()) {
            d.add(sig->name());
        }
        digitalRegistry().digest(d);
        extraState_.digest(d);
        analogRegistry().digest(d);
        layout_ = d.value();
        layoutFor_ = sizes;
    }
    return layout_;
}

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

    digitalRegistry().capture(w);
    extraState_.capture(w);

    const bool hasAnalog = elaborated() && analog_.unknownCount() > 0;
    w.boolean(hasAnalog);
    if (hasAnalog) {
        const std::size_t mark = w.beginBlob();
        solver_->captureState(w);
        w.endBlob(mark);
        analogRegistry().capture(w);
    }

    snapshot::Snapshot snap;
    snap.time = digital_.scheduler().now();
    snap.analogTime = hasAnalog ? solver_->time() : 0.0;
    snap.layout = layoutDigest();
    snap.bytes = w.take();
    return snap;
}

std::vector<std::uint8_t> MixedSimulator::canonicalState() const
{
    snapshot::Writer w;
    captureCanonicalValues(w);
    captureCanonicalRest(w);
    return w.take();
}

void MixedSimulator::captureCanonicalValues(snapshot::Writer& w) const
{
    for (const digital::SignalBase* sig : digital_.signals()) {
        w.u64(sig->canonicalValue());
    }
}

void MixedSimulator::captureCanonicalRest(snapshot::Writer& w) const
{
    for (const digital::SignalBase* sig : digital_.signals()) {
        sig->captureCanonical(w);
    }
    digital_.scheduler().captureCanonical(w);
    digitalRegistry().capture(w);
    extraState_.capture(w);
}

void MixedSimulator::restoreSnapshot(const snapshot::Snapshot& snap)
{
    // A snapshot of this very layout names every entry as this simulator
    // does: step over the names instead of comparing them.
    const bool namesChecked = snap.layout != 0 && snap.layout == layoutDigest();
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
        if (!namesChecked && name != sig->name()) {
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

    digitalRegistry().restore(r, namesChecked);
    extraState_.restore(r, namesChecked);

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
        analogRegistry().restore(r, namesChecked);
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
        p.stepsLimitedBy = s.stepsLimitedBy;
        p.minAcceptedDt = s.minAcceptedDt;
        p.lastAcceptedDt = s.lastAcceptedDt;
    }
    p.atodCrossings = bridgeCounters_.atodCrossings;
    p.dtoaEvents = bridgeCounters_.dtoaEvents;
    return p;
}

void MixedSimulator::armConvergence(const ConvergencePlan* plan, SimTime lastAction)
{
    if (plan != nullptr && analog_.unknownCount() > 0) {
        throw std::logic_error("MixedSimulator: convergence exit needs a purely digital design");
    }
    converge_.plan = plan;
    converge_.at = -1;
    converge_.skippedWaves = 0;
    converge_.ordinal = 1;
    if (plan != nullptr) {
        const auto& times = plan->eventTimes();
        converge_.first = static_cast<std::size_t>(
            std::upper_bound(times.begin(), times.end(), lastAction) - times.begin());
    }
}

SimTime MixedSimulator::nextConvergenceMark(SimTime until)
{
    const ConvergencePlan* plan = converge_.plan;
    if (plan == nullptr || converge_.at >= 0 || until < plan->duration()) {
        return kTimeMax;
    }
    const auto& times = plan->eventTimes();
    const SimTime now = digital_.scheduler().now();
    while (converge_.first + converge_.ordinal - 1 < times.size()) {
        const SimTime t = times[converge_.first + converge_.ordinal - 1];
        if (t >= plan->duration()) {
            break; // nothing left to skip
        }
        if (t >= now) {
            return t;
        }
        converge_.ordinal *= 2;
    }
    return kTimeMax;
}

bool MixedSimulator::tryConverge()
{
    auto& sched = digital_.scheduler();
    const ConvergencePlan& plan = *converge_.plan;
    const SimTime now = sched.now();
    converge_.ordinal *= 2; // a failed check moves on to the next mark
    const ConvergencePlan::Mark* mark = plan.markAt(now);
    if (mark == nullptr) {
        return false; // the plan was recorded for other faults
    }
    // Values first: most mismatches stop there.
    snapshot::Writer& w = converge_.scratch;
    w.clear();
    captureCanonicalValues(w);
    const std::size_t valueBytes = w.bytes().size();
    if (mark->state.size() < valueBytes ||
        !std::equal(w.bytes().begin(), w.bytes().end(), mark->state.begin())) {
        return false;
    }
    captureCanonicalRest(w);
    if (w.bytes() != mark->state) {
        return false;
    }
    // Every restored wave stamp and queue seq must stay below the billed
    // counters, as in a run that simulated the suffix itself.
    const digital::Scheduler::Counters run = sched.counters();
    const digital::Scheduler::Counters& at = mark->counters;
    const digital::Scheduler::Counters& end = plan.finalCounters();
    if (run.waveId < at.waveId || run.seq < at.seq) {
        return false;
    }
    const std::uint64_t suffixWaves = end.waves - at.waves;
    if (watchdog_ != nullptr && !watchdog_->tryChargeDigitalWaves(suffixWaves)) {
        return false; // the full run times out in the suffix: let it
    }
    const std::uint64_t highWater = std::max(sched.queueHighWater(), mark->suffixHighWater);
    const BridgeCounters bridges = bridgeCounters_;
    restoreSnapshot(plan.finalSnapshot());
    sched.setCounters({run.waves + suffixWaves, run.waveId + (end.waveId - at.waveId),
                       run.seq + (end.seq - at.seq), run.events + (end.events - at.events)},
                      highWater);
    bridgeCounters_.atodCrossings =
        bridges.atodCrossings + (plan.finalBridges().atodCrossings - mark->bridges.atodCrossings);
    bridgeCounters_.dtoaEvents =
        bridges.dtoaEvents + (plan.finalBridges().dtoaEvents - mark->bridges.dtoaEvents);
    converge_.at = now;
    converge_.skippedWaves = suffixWaves;
    return true;
}

void MixedSimulator::run(SimTime until)
{
    elaborate();
    auto& sched = digital_.scheduler();

    // If the design is purely digital, fall through to the event kernel.
    const bool hasAnalog = analog_.unknownCount() > 0;
    // The armed convergence check due next (kTimeMax: none in this call).
    SimTime mark = hasAnalog ? kTimeMax : nextConvergenceMark(until);

    while (true) {
        if (watchdog_ != nullptr) {
            watchdog_->checkWallClock();
        }
        const SimTime nextDigital = sched.nextEventTime();
        SimTime target = nextDigital < until ? nextDigital : until;
        target = mark < target ? mark : target;

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
        if (target == mark) {
            mark = tryConverge() ? kTimeMax : nextConvergenceMark(until);
        }
    }
}

} // namespace gfi::ams
