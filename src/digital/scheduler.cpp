#include "digital/scheduler.hpp"

#include "digital/signal.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/errors.hpp"

namespace gfi::digital {

void Scheduler::push(SimTime t, const Entry& e)
{
    queue_.push(t, e);
    if (queue_.size() > queueHighWater_) {
        queueHighWater_ = queue_.size();
    }
}

void Scheduler::scheduleTransaction(SimTime t, SignalBase& sig, std::uint64_t txnId)
{
    if (t < now_) {
        t = now_; // defensive: never schedule in the past
    }
    push(t, Entry{seq_++, &sig, txnId});
}

void Scheduler::scheduleAction(SimTime t, std::function<void()> action)
{
    if (t < now_) {
        t = now_;
    }
    std::uint64_t slot = 0;
    if (freeActionSlots_.empty()) {
        slot = actions_.size();
        actions_.push_back(std::move(action));
    } else {
        slot = freeActionSlots_.back();
        freeActionSlots_.pop_back();
        actions_[slot] = std::move(action);
    }
    push(t, Entry{seq_++, nullptr, slot});
}

void Scheduler::registerProcess(Process* p)
{
    p->index_ = processes_.size();
    processes_.push_back(p);
}

void Scheduler::wake(Process* p)
{
    if (p->queued_) {
        return;
    }
    p->queued_ = true;
    runnable_.push_back(p);
}

SimTime Scheduler::nextEventTime() const noexcept
{
    return queue_.nextTime();
}

void Scheduler::start()
{
    if (started_) {
        return;
    }
    started_ = true;
    // VHDL elaboration: every process runs once at time zero.
    for (Process* p : processes_) {
        p->run();
    }
    runDeltasNow();
}

void Scheduler::throwDeltaLimit() const
{
    std::string msg = "Scheduler: delta-cycle limit (" + std::to_string(deltaLimit_) +
                      ") exceeded at t=" + formatTime(now_) +
                      " (combinational loop or zero-delay oscillation";
    if (lastEventSignal_ != nullptr) {
        msg += "; last signal event: '" + *lastEventSignal_ + "'";
    }
    if (lastProcessRun_ != nullptr) {
        msg += "; last process: '" + *lastProcessRun_ + "'";
    }
    msg += "); hint: run lint — rule DIG001 reports combinational loops statically, "
           "before any simulation";
    throw SchedulerLimitError(msg);
}

void Scheduler::runWave()
{
    // Phase 1: apply signal transactions due now; phase 2: actions; phase 3:
    // woken processes. The wave id advances only after the processes ran, so
    // events stamped in phases 1-2 are visible to them. An action's closure
    // leaves its slot before any action runs, so actions may schedule more.
    dueActions_.clear();
    toRun_.clear();
    queue_.popDue(now_, due_);
    for (const Entry& e : due_) {
        if (e.signal == nullptr) {
            dueActions_.push_back(std::move(actions_[e.payload]));
            freeActionSlots_.push_back(e.payload);
        }
    }
    dispatched_ += due_.size();
    for (const Entry& e : due_) {
        if (e.signal != nullptr) {
            e.signal->applyTxn(e.payload);
        }
    }
    for (auto& fn : dueActions_) {
        fn();
    }
    toRun_.swap(runnable_);
    for (Process* p : toRun_) {
        p->queued_ = false;
        lastProcessRun_ = &p->name();
        p->run();
    }
    ++waveId_;
    ++deltasRun_;
    if (recorder_ != nullptr) {
        recorder_->record(obs::FlightRecorder::Kind::Wave, now_, 0.0, deltasRun_,
                          queue_.size(), 0.0);
    }
    if (watchdog_ != nullptr) {
        watchdog_->chargeDigitalWave();
    }
}

void Scheduler::runUntil(SimTime tEnd)
{
    start();
    // Values forced from outside the kernel (testbenches, bridges) may have
    // woken processes without queuing any entry; drain them before advancing.
    runDeltasNow();
    while (!queue_.empty() && queue_.nextTime() <= tEnd) {
        const SimTime t = queue_.nextTime();
        now_ = t < now_ ? now_ : t;
        std::uint64_t deltasHere = 0;
        while (workPendingNow()) {
            if (++deltasHere > deltaLimit_) {
                throwDeltaLimit();
            }
            runWave();
        }
    }
    if (tEnd > now_) {
        now_ = tEnd;
    }
}

void Scheduler::runDeltasNow()
{
    started_ = true;
    std::uint64_t deltasHere = 0;
    while (workPendingNow()) {
        if (++deltasHere > deltaLimit_) {
            throwDeltaLimit();
        }
        runWave();
    }
}

void Scheduler::captureState(snapshot::Writer& w) const
{
    w.i64(now_);
    w.u64(seq_);
    w.u64(waveId_);
    w.u64(deltasRun_);
    w.boolean(started_);
    w.u64(runnable_.size());
    for (const Process* p : runnable_) {
        w.u64(p->index_);
    }
    // The buckets walk in (time, seq) order, so pending transactions
    // serialize in the order they would apply in.
    std::uint64_t pending = 0;
    queue_.forEach([&](SimTime, const Entry& e) { pending += e.signal != nullptr ? 1 : 0; });
    w.u64(pending);
    queue_.forEach([&](SimTime t, const Entry& e) {
        if (e.signal != nullptr) {
            w.i64(t);
            w.u64(e.seq);
            w.str(e.signal->name());
            w.u64(e.payload);
        }
    });
}

void Scheduler::captureCanonical(snapshot::Writer& w) const
{
    w.boolean(started_);
    w.u64(runnable_.size());
    for (const Process* p : runnable_) {
        w.u64(p->index_);
    }
    w.u64(queue_.size());
    queue_.forEach([&](SimTime t, const Entry& e) {
        w.i64(t);
        w.boolean(e.signal != nullptr);
        if (e.signal != nullptr) {
            w.u64(e.signal->index());
            w.u64(e.signal->pendingSlot(e.payload));
        }
    });
}

void Scheduler::restoreState(snapshot::Reader& r,
                             const std::function<SignalBase&(const std::string&)>& resolve)
{
    now_ = r.i64();
    seq_ = r.u64();
    waveId_ = r.u64();
    deltasRun_ = r.u64();
    started_ = r.boolean();
    for (Process* p : runnable_) {
        p->queued_ = false;
    }
    runnable_.clear();
    const std::uint64_t woken = r.u64();
    for (std::uint64_t i = 0; i < woken; ++i) {
        const std::uint64_t index = r.u64();
        if (index >= processes_.size()) {
            throw snapshot::SnapshotFormatError(
                "snapshot: runnable process #" + std::to_string(index) + " of " +
                std::to_string(processes_.size()) + " (testbench factory mismatch?)");
        }
        wake(processes_[index]);
    }
    queue_.clear();
    actions_.clear();
    freeActionSlots_.clear();
    lastEventSignal_ = nullptr;
    lastProcessRun_ = nullptr;
    const std::uint64_t n = r.u64();
    SimTime lastTime = now_;
    std::uint64_t lastSeq = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const SimTime t = r.i64();
        const std::uint64_t seq = r.u64();
        SignalBase& sig = resolve(r.str());
        const std::uint64_t txnId = r.u64();
        // Pushing the list in turn refills every bucket in seq order only if
        // it is in (time, seq) order, not before now and below the restored
        // seq_ counter, from which fresh entries (re-armed actions, new
        // faults) draw so they queue after these.
        if (t < lastTime || (t == lastTime && i > 0 && seq <= lastSeq) || seq >= seq_) {
            throw snapshot::SnapshotFormatError(
                "snapshot: pending transaction #" + std::to_string(i) + " (t=" +
                formatTime(t) + ", seq " + std::to_string(seq) +
                ") out of (time, seq) order");
        }
        lastTime = t;
        lastSeq = seq;
        queue_.push(t, Entry{seq, &sig, txnId});
    }
    // The dispatch counter is not part of the snapshot format: the campaign
    // layer samples a post-restore baseline and bills runs by delta, so it
    // only needs to keep counting monotonically. The high-water mark is a
    // level, not a count, so it restarts here: whatever depth the kernel
    // reached before the restore is no part of the restored run.
    queueHighWater_ = queue_.size();
}

} // namespace gfi::digital
