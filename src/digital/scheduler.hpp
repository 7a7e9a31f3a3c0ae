#pragma once
// Event-driven digital simulation kernel with VHDL-style delta cycles.
//
// Execution model — one *wave* is:
//   1. apply all signal transactions due at the current time (value updates;
//      a changed value marks an event and wakes sensitive processes);
//   2. run all scheduled actions (clock generators, fault injectors, ...);
//   3. run every woken process.
// Waves repeat at the same simulation time until no zero-delay work remains
// (delta cycles), then time advances to the next pending entry.
//
// Event visibility: a signal event is visible (signal.event() == true) to the
// processes that run in the same wave in which the value changed. This also
// holds for values forced from outside the kernel (mixed-mode bridges, fault
// injectors): the forcing call stamps the current wave, and the next wave run
// by runDeltasNow() executes the woken processes before the wave id advances.

#include "sim/time.hpp"
#include "sim/watchdog.hpp"
#include "digital/time_buckets.hpp"
#include "snapshot/serialize.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gfi::obs {
class FlightRecorder;
}

namespace gfi::digital {

class Scheduler;
class SignalBase;

/// A concurrent process: a callback executed whenever one of the signals it is
/// sensitive to has an event (VHDL process with a sensitivity list).
class Process {
public:
    /// @param name  diagnostic name (hierarchical by convention, e.g. "pfd/ff1").
    /// @param fn    body executed on wake-up.
    Process(std::string name, std::function<void()> fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {
    }

    /// Diagnostic name.
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Executes the process body once.
    void run() { fn_(); }

private:
    friend class Scheduler;
    std::string name_;
    std::function<void()> fn_;
    std::size_t index_ = 0; // registration position (snapshots name it by this)
    bool queued_ = false;   // already in the runnable set
};

/// The digital event queue / delta-cycle engine.
class Scheduler {
public:
    Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Current simulation time.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Identifier of the execution wave currently running (or about to run).
    /// Signal events stamped with this id are "fresh" for edge detection.
    [[nodiscard]] std::uint64_t waveId() const noexcept { return waveId_; }

    /// Total number of waves (delta cycles) executed — diagnostic metric.
    [[nodiscard]] std::uint64_t deltaCycles() const noexcept { return deltasRun_; }

    // --- kernel probes (always-on counters; cost: one increment each) -------

    /// Queue entries executed so far (transactions applied + actions run).
    [[nodiscard]] std::uint64_t eventsDispatched() const noexcept { return dispatched_; }

    /// Largest pending-queue depth ever observed (a growing high-water mark
    /// is the signature of a run that schedules faster than it retires —
    /// the usual cause of a wall-clock watchdog timeout).
    [[nodiscard]] std::uint64_t queueHighWater() const noexcept { return queueHighWater_; }

    /// Pending-queue depth right now.
    [[nodiscard]] std::uint64_t pendingEvents() const noexcept { return queue_.size(); }

    /// Caps the number of delta cycles at one simulation time before the
    /// kernel declares a combinational loop (SchedulerLimitError).
    void setDeltaLimit(std::uint64_t limit) noexcept
    {
        deltaLimit_ = limit == 0 ? kDefaultDeltaLimit : limit;
    }
    [[nodiscard]] std::uint64_t deltaLimit() const noexcept { return deltaLimit_; }

    /// Attaches a per-run watchdog (not owned; nullptr detaches). Every wave
    /// charges one digital-wave unit; budget exhaustion unwinds the kernel
    /// with WatchdogTimeout.
    void setWatchdog(Watchdog* wd) noexcept { watchdog_ = wd; }

    /// Attaches a flight recorder (not owned; nullptr detaches). Every
    /// retired wave records one event — a branch and a ring write, so the
    /// recorder can stay armed for entire campaigns.
    void setFlightRecorder(obs::FlightRecorder* fr) noexcept { recorder_ = fr; }

    /// Records the signal whose event was stamped most recently — the prime
    /// suspect when the delta-cycle limit trips (called by SignalBase).
    void noteSignalEvent(const std::string& name) noexcept { lastEventSignal_ = &name; }

    /// Registers a process so the kernel can run it once at startup
    /// (VHDL elaboration semantics). Called by Circuit.
    void registerProcess(Process* p);

    /// Queues a signal-value update at absolute time @p t (phase 1 of a wave):
    /// when due, the kernel calls @p sig->applyTxn(txnId). Transactions are
    /// pure data (no closure) so a pending queue can be snapshotted.
    void scheduleTransaction(SimTime t, SignalBase& sig, std::uint64_t txnId);

    /// Queues a callback at absolute time @p t (phase 2 of a wave). Used for
    /// clock generators, testbench stimuli and fault-injection triggers.
    void scheduleAction(SimTime t, std::function<void()> action);

    /// Marks @p p runnable in the current wave (called on signal events).
    void wake(Process* p);

    /// Earliest pending entry time, or kTimeMax if the queue is empty.
    [[nodiscard]] SimTime nextEventTime() const noexcept;

    /// Processes every entry with time <= @p tEnd, then sets now() = tEnd.
    /// Runs all registered processes once first if the kernel has not started.
    void runUntil(SimTime tEnd);

    /// Runs pending work at the current time only (all deltas), without
    /// advancing time. Used by the mixed-mode synchronizer after an analog
    /// threshold crossing forces a digital signal.
    void runDeltasNow();

    /// True once the initial process execution pass has happened.
    [[nodiscard]] bool started() const noexcept { return started_; }

    /// Forces the startup pass (normally triggered lazily by runUntil).
    void start();

    // --- convergence exit ---------------------------------------------------

    /// The kernel's counters, as a convergence exit reads and bills them.
    struct Counters {
        std::uint64_t waves = 0;  ///< deltaCycles()
        std::uint64_t waveId = 0; ///< waveId()
        std::uint64_t seq = 0;    ///< next queue sequence number
        std::uint64_t events = 0; ///< eventsDispatched()
    };
    [[nodiscard]] Counters counters() const noexcept
    {
        return {deltasRun_, waveId_, seq_, dispatched_};
    }

    /// Overwrites the counters and the queue high-water mark: a convergence
    /// exit bills the golden suffix it skipped through this.
    void setCounters(const Counters& c, std::uint64_t queueHighWater) noexcept
    {
        deltasRun_ = c.waves;
        waveId_ = c.waveId;
        seq_ = c.seq;
        dispatched_ = c.events;
        queueHighWater_ = queueHighWater;
    }

    /// Restarts the high-water mark at the current depth, so the next
    /// reading is the deepest queue since this call.
    void resetQueueHighWater() noexcept { queueHighWater_ = queue_.size(); }

    /// The scheduler's part of a canonical state: the started flag, the
    /// runnable processes, and every queue entry in (time, seq) order — a
    /// transaction as (time, signal index, pending slot), an action as its
    /// time — with seq numbers and txn ids replaced by their order.
    void captureCanonical(snapshot::Writer& w) const;

    // --- snapshot support ---------------------------------------------------

    /// Serializes the kernel counters, whether the startup pass has run, the
    /// runnable processes (woken by values forced before the next wave) and
    /// every pending *transaction* (time, seq, signal name, txn id). Pending
    /// *actions* are closures and are not captured: their owners (clock
    /// generators, stimulus schedules, PFD resets, scrubbers) record their
    /// fire times and re-arm on restore. Must be called at a quiescent point
    /// (no wave in flight) — after run(t) returns, or before the kernel
    /// started (a pre-start capture).
    void captureState(snapshot::Writer& w) const;

    /// Restores the counters and the started flag, clears the queue and the
    /// action table and re-inserts the captured transactions with their
    /// original sequence numbers (so same-wave apply order is preserved
    /// exactly). @p resolve maps a signal name back to this circuit's signal
    /// object. The queue high-water mark restarts at the restored depth, so a
    /// used kernel reports what a freshly built twin would.
    void restoreState(snapshot::Reader& r,
                      const std::function<SignalBase&(const std::string&)>& resolve);

private:
    /// One queued entry, filed in the TimeBuckets bucket of its due time.
    /// A transaction targets @c signal with txn id @c payload; an action
    /// (@c signal == nullptr) runs the closure in slot @c payload of
    /// actions_. @c seq is the entry's place in (time, seq) dispatch order;
    /// buckets keep push order, which is seq order, so it is stored only for
    /// snapshots. Canceled inertial transactions stay queued: dispatching one
    /// still costs its wave, which the word kernel replicates exactly.
    struct Entry {
        std::uint64_t seq;
        SignalBase* signal;
        std::uint64_t payload;
    };

    void push(SimTime t, const Entry& e); // queues @p e, tracking the high-water mark

    /// True while zero-delay work remains at the current time.
    [[nodiscard]] bool workPendingNow() const noexcept
    {
        return !runnable_.empty() || (!queue_.empty() && queue_.nextTime() <= now_);
    }

    void runWave(); // one wave at the current time

    /// Throws SchedulerLimitError naming the time, the last signal event and
    /// the last process run (the usual combinational-loop participants).
    [[noreturn]] void throwDeltaLimit() const;

    static constexpr std::uint64_t kDefaultDeltaLimit = 1'000'000;

    TimeBuckets<Entry> queue_;
    std::vector<std::function<void()>> actions_; // closures of queued actions
    std::vector<std::uint64_t> freeActionSlots_;  // actions_ slots free for reuse
    std::vector<Process*> processes_;
    std::vector<Process*> runnable_;
    // Per-wave scratch, reused so a wave allocates nothing in steady state.
    std::vector<Entry> due_;
    std::vector<std::function<void()>> dueActions_;
    std::vector<Process*> toRun_;
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t deltasRun_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t queueHighWater_ = 0;
    std::uint64_t waveId_ = 0;
    std::uint64_t deltaLimit_ = kDefaultDeltaLimit;
    Watchdog* watchdog_ = nullptr;
    obs::FlightRecorder* recorder_ = nullptr;
    const std::string* lastEventSignal_ = nullptr;
    const std::string* lastProcessRun_ = nullptr;
    bool started_ = false;
};

} // namespace gfi::digital
