#pragma once
// Digital signals with VHDL-style projected waveforms.
//
// A Signal<T> carries a current value plus a list of pending transactions.
// Scheduling uses either inertial semantics (a new write cancels every pending
// transaction — the behaviour of a simple gate output) or transport semantics
// (pending transactions earlier than the new one are preserved — the behaviour
// of a pure delay line). Value changes mark an *event* and wake every process
// on the signal's sensitivity list.

#include "digital/logic.hpp"
#include "digital/scheduler.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace gfi::digital {

/// Non-template base so traces and saboteurs can handle signals generically.
class SignalBase {
public:
    SignalBase(Scheduler& sched, std::string name)
        : sched_(&sched), name_(std::move(name))
    {
    }
    virtual ~SignalBase() = default;
    SignalBase(const SignalBase&) = delete;
    SignalBase& operator=(const SignalBase&) = delete;

    /// Hierarchical signal name, e.g. "pll/pfd/up".
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Adds @p p to the sensitivity list: it wakes on every event of this signal.
    void addListener(Process* p) { listeners_.push_back(p); }

    /// Number of sensitive processes (lint: a signal nobody listens to,
    /// watches or reads is dead).
    [[nodiscard]] std::size_t listenerCount() const noexcept { return listeners_.size(); }

    /// Number of raw event watchers (trace recorders, D->A bridges).
    [[nodiscard]] std::size_t watcherCount() const noexcept { return watchers_.size(); }

    /// Time of the most recent event, or -1 before the first one.
    [[nodiscard]] SimTime lastEventTime() const noexcept { return lastEventTime_; }

    /// True if this signal changed value in the current execution wave
    /// (VHDL 'event): fresh enough that edge-triggered processes woken by the
    /// change still see it as an edge.
    [[nodiscard]] bool event() const noexcept
    {
        return lastEventTime_ == sched_->now() && lastEventStamp_ == sched_->waveId();
    }

    /// The scheduler this signal lives in.
    [[nodiscard]] Scheduler& scheduler() const noexcept { return *sched_; }

    /// Applies the pending transaction @p id (phase 1 of a wave). Called by
    /// the scheduler, which stores transactions as (signal, id) data so the
    /// pending queue can be snapshotted.
    virtual void applyTxn(std::uint64_t id) = 0;

    /// Serializes the full signal state: value, last value, event bookkeeping
    /// and the pending-transaction list (fixed field order, see Snapshottable).
    virtual void captureState(snapshot::Writer& w) const = 0;

    /// Restores the members written by captureState() directly — no events
    /// are raised and nothing is scheduled (the scheduler re-inserts pending
    /// queue entries itself, preserving their original sequence numbers).
    virtual void restoreState(snapshot::Reader& r) = 0;

    // --- canonical state (convergence exit) ---------------------------------

    /// The current value, widened (the first section of a canonical state).
    [[nodiscard]] virtual std::uint64_t canonicalValue() const noexcept = 0;

    /// The pending-transaction list as (due, value, canceled), without the
    /// txn ids and without previous_/lastEventTime_/lastEventStamp_/
    /// nextTxnId_: two runs that agree on this and on everything else a
    /// canonical state holds continue identically (DESIGN.md §9).
    virtual void captureCanonical(snapshot::Writer& w) const = 0;

    /// Position of pending transaction @p id in the pending list: the id's
    /// run-independent name.
    [[nodiscard]] virtual std::uint64_t pendingSlot(std::uint64_t id) const noexcept = 0;

    /// Creation position in the owning circuit (0 outside a Circuit).
    [[nodiscard]] std::size_t index() const noexcept { return index_; }

protected:
    void noteEvent()
    {
        lastEventTime_ = sched_->now();
        lastEventStamp_ = sched_->waveId();
        sched_->noteSignalEvent(name_);
        for (Process* p : listeners_) {
            sched_->wake(p);
        }
        for (auto& cb : watchers_) {
            cb();
        }
    }

    /// Registers a raw callback run on every event (used by trace recorders).
    friend class SignalWatch;

    friend class Circuit; // sets index_

    Scheduler* sched_;
    std::string name_;
    std::size_t index_ = 0;
    std::vector<Process*> listeners_;
    std::vector<std::function<void()>> watchers_;
    SimTime lastEventTime_ = -1;
    std::uint64_t lastEventStamp_ = 0;
};

/// Helper granting trace recorders access to the event callback list.
class SignalWatch {
public:
    /// Invokes @p cb on every event of @p s (after the value update).
    static void onEvent(SignalBase& s, std::function<void()> cb)
    {
        s.watchers_.push_back(std::move(cb));
    }
};

/// A typed digital signal.
template <typename T>
class Signal : public SignalBase {
public:
    Signal(Scheduler& sched, std::string name, T initial)
        : SignalBase(sched, std::move(name)), value_(initial), previous_(initial)
    {
    }

    /// Current value.
    [[nodiscard]] const T& value() const noexcept { return value_; }

    /// Value before the most recent event (VHDL 'last_value).
    [[nodiscard]] const T& lastValue() const noexcept { return previous_; }

    /// Schedules @p v after @p delay with inertial semantics: every pending
    /// transaction is cancelled first (last write wins).
    void scheduleInertial(T v, SimTime delay = 0)
    {
        for (Txn& t : pending_) {
            t.canceled = true;
        }
        push(v, delay);
    }

    /// Schedules @p v after @p delay with transport semantics: pending
    /// transactions due earlier are preserved, later ones are cancelled.
    void scheduleTransport(T v, SimTime delay = 0)
    {
        const SimTime due = sched_->now() + delay;
        for (Txn& t : pending_) {
            if (t.due >= due) {
                t.canceled = true;
            }
        }
        push(v, delay);
    }

    /// Immediately overwrites the value outside the normal two-phase update.
    /// Only fault injectors and testbench setup should use this; it still
    /// marks an event so downstream processes re-evaluate.
    void forceValue(T v)
    {
        if (v == value_) {
            return;
        }
        previous_ = value_;
        value_ = v;
        noteEvent();
    }

    /// Number of not-yet-applied transactions (diagnostic).
    [[nodiscard]] std::size_t pendingCount() const noexcept
    {
        std::size_t n = 0;
        for (const Txn& t : pending_) {
            n += t.canceled ? 0 : 1;
        }
        return n;
    }

    void applyTxn(std::uint64_t id) override { apply(id); }

    void captureState(snapshot::Writer& w) const override
    {
        w.u64(static_cast<std::uint64_t>(value_));
        w.u64(static_cast<std::uint64_t>(previous_));
        w.i64(lastEventTime_);
        w.u64(lastEventStamp_);
        w.u64(nextTxnId_);
        w.u64(pending_.size());
        for (const Txn& t : pending_) {
            w.i64(t.due);
            w.u64(t.id);
            w.u64(static_cast<std::uint64_t>(t.value));
            w.boolean(t.canceled);
        }
    }

    void restoreState(snapshot::Reader& r) override
    {
        value_ = static_cast<T>(r.u64());
        previous_ = static_cast<T>(r.u64());
        lastEventTime_ = r.i64();
        lastEventStamp_ = r.u64();
        nextTxnId_ = r.u64();
        pending_.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            Txn t{};
            t.due = r.i64();
            t.id = r.u64();
            t.value = static_cast<T>(r.u64());
            t.canceled = r.boolean();
            pending_.push_back(t);
        }
    }

    [[nodiscard]] std::uint64_t canonicalValue() const noexcept override
    {
        return static_cast<std::uint64_t>(value_);
    }

    void captureCanonical(snapshot::Writer& w) const override
    {
        w.u64(pending_.size());
        for (const Txn& t : pending_) {
            w.i64(t.due);
            w.u64(static_cast<std::uint64_t>(t.value));
            w.boolean(t.canceled);
        }
    }

    [[nodiscard]] std::uint64_t pendingSlot(std::uint64_t id) const noexcept override
    {
        std::uint64_t slot = 0;
        while (slot < pending_.size() && pending_[slot].id != id) {
            ++slot;
        }
        return slot;
    }

private:
    struct Txn {
        SimTime due;
        std::uint64_t id;
        T value;
        bool canceled;
    };

    void push(T v, SimTime delay)
    {
        const std::uint64_t id = nextTxnId_++;
        pending_.push_back(Txn{sched_->now() + delay, id, v, false});
        sched_->scheduleTransaction(sched_->now() + delay, *this, id);
    }

    void apply(std::uint64_t id)
    {
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (pending_[i].id != id) {
                continue;
            }
            const Txn txn = pending_[i];
            pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
            if (!txn.canceled && !(txn.value == value_)) {
                previous_ = value_;
                value_ = txn.value;
                noteEvent();
            }
            return;
        }
    }

    T value_;
    T previous_;
    std::vector<Txn> pending_;
    std::uint64_t nextTxnId_ = 0;
};

/// Convenience alias: the workhorse single-bit signal type.
using LogicSignal = Signal<Logic>;

/// True when @p s had an event this delta and now carries a rising edge (0->1).
inline bool risingEdge(const LogicSignal& s) noexcept
{
    return s.event() && toX01(s.value()) == Logic::One && toX01(s.lastValue()) == Logic::Zero;
}

/// True when @p s had an event this delta and now carries a falling edge (1->0).
inline bool fallingEdge(const LogicSignal& s) noexcept
{
    return s.event() && toX01(s.value()) == Logic::Zero && toX01(s.lastValue()) == Logic::One;
}

} // namespace gfi::digital
