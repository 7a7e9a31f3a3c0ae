// Unit tests for the event-driven kernel: ordering, delta cycles, inertial vs
// transport delay, edges and process wake-up semantics.

#include "digital/circuit.hpp"
#include "digital/gates.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace gfi::digital {
namespace {

TEST(Scheduler, TimeAdvancesToRunUntilTarget)
{
    Circuit c;
    c.runUntil(5 * kNanosecond);
    EXPECT_EQ(c.scheduler().now(), 5 * kNanosecond);
}

TEST(Scheduler, ActionsRunInTimeOrder)
{
    Circuit c;
    std::vector<int> order;
    c.scheduler().scheduleAction(3 * kNanosecond, [&] { order.push_back(3); });
    c.scheduler().scheduleAction(1 * kNanosecond, [&] { order.push_back(1); });
    c.scheduler().scheduleAction(2 * kNanosecond, [&] { order.push_back(2); });
    c.runUntil(10 * kNanosecond);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeActionsRunInScheduleOrder)
{
    Circuit c;
    std::vector<int> order;
    c.scheduler().scheduleAction(kNanosecond, [&] { order.push_back(1); });
    c.scheduler().scheduleAction(kNanosecond, [&] { order.push_back(2); });
    c.runUntil(2 * kNanosecond);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, SignalScheduleAppliesAfterDelay)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(0, [&] { s.scheduleInertial(Logic::One, 5 * kNanosecond); });
    c.runUntil(4 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    c.runUntil(5 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::One);
    EXPECT_EQ(s.lastEventTime(), 5 * kNanosecond);
}

TEST(Scheduler, InertialCancelsPendingTransactions)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(0, [&] {
        s.scheduleInertial(Logic::One, 2 * kNanosecond);
        s.scheduleInertial(Logic::Zero, 4 * kNanosecond); // cancels the 2 ns pulse
    });
    c.runUntil(10 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    EXPECT_EQ(s.lastEventTime(), -1); // never actually changed
}

TEST(Scheduler, TransportPreservesEarlierTransactions)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    std::vector<SimTime> eventTimes;
    SignalWatch::onEvent(s, [&] { eventTimes.push_back(c.scheduler().now()); });
    c.scheduler().scheduleAction(0, [&] {
        s.scheduleTransport(Logic::One, 2 * kNanosecond);
        s.scheduleTransport(Logic::Zero, 4 * kNanosecond); // both survive
    });
    c.runUntil(10 * kNanosecond);
    ASSERT_EQ(eventTimes.size(), 2u);
    EXPECT_EQ(eventTimes[0], 2 * kNanosecond);
    EXPECT_EQ(eventTimes[1], 4 * kNanosecond);
}

TEST(Scheduler, TransportCancelsLaterTransactions)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(0, [&] {
        s.scheduleTransport(Logic::One, 5 * kNanosecond);
        s.scheduleTransport(Logic::Zero, 3 * kNanosecond); // cancels the 5 ns one
    });
    c.runUntil(10 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(Scheduler, ProcessWakesOnSignalEvent)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    int wakeCount = 0;
    c.process("watcher", [&] { ++wakeCount; }, {&s});
    c.runUntil(0);
    const int initial = wakeCount; // elaboration pass runs it once
    c.scheduler().scheduleAction(kNanosecond, [&] { s.scheduleInertial(Logic::One, 0); });
    c.runUntil(2 * kNanosecond);
    EXPECT_EQ(wakeCount, initial + 1);
}

TEST(Scheduler, NoWakeWithoutValueChange)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    int wakeCount = 0;
    c.process("watcher", [&] { ++wakeCount; }, {&s});
    c.runUntil(0);
    const int initial = wakeCount;
    // Writing the same value is a transaction but not an event.
    c.scheduler().scheduleAction(kNanosecond, [&] { s.scheduleInertial(Logic::Zero, 0); });
    c.runUntil(2 * kNanosecond);
    EXPECT_EQ(wakeCount, initial);
}

TEST(Scheduler, ZeroDelayChainsResolveInDeltas)
{
    // a -> not -> b -> not -> c with zero gate delay must settle at one time.
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::U);
    auto& y = c.logicSignal("y", Logic::U);
    c.add<NotGate>(c, "inv1", a, b, SimTime{0});
    c.add<NotGate>(c, "inv2", b, y, SimTime{0});
    c.runUntil(0);
    EXPECT_EQ(b.value(), Logic::One);
    EXPECT_EQ(y.value(), Logic::Zero);
    c.scheduler().scheduleAction(kNanosecond, [&] { a.forceValue(Logic::One); });
    c.runUntil(kNanosecond);
    EXPECT_EQ(y.value(), Logic::One);
    EXPECT_EQ(c.scheduler().now(), kNanosecond);
}

TEST(Scheduler, CombinationalLoopDetected)
{
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::U);
    c.add<NotGate>(c, "inv1", a, b, SimTime{0});
    c.add<NotGate>(c, "inv2", b, a, SimTime{0}); // zero-delay ring oscillator
    EXPECT_THROW(c.runUntil(kNanosecond), std::runtime_error);
}

TEST(Scheduler, ForcedValueVisibleAsEdgeToWokenProcess)
{
    // The mixed-mode bridge forces values from outside the kernel; the woken
    // process must still see signal.event() (edge detection depends on it).
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    bool sawRisingEdge = false;
    c.process("edge", [&] { sawRisingEdge = sawRisingEdge || risingEdge(s); }, {&s});
    c.runUntil(kNanosecond);
    s.forceValue(Logic::One);
    c.scheduler().runDeltasNow();
    EXPECT_TRUE(sawRisingEdge);
}

TEST(Scheduler, RunUntilDrainsProcessesWokenByForcedValues)
{
    // Regression: a forceValue from outside the kernel wakes processes but
    // queues no entry; runUntil must still run them (found via a benchmark
    // where an inverter chain silently never propagated).
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::U);
    auto& y = c.logicSignal("y", Logic::U);
    c.add<NotGate>(c, "inv1", a, b, SimTime{0});
    c.add<NotGate>(c, "inv2", b, y, SimTime{0});
    c.runUntil(kNanosecond);
    EXPECT_EQ(y.value(), Logic::Zero);
    a.forceValue(Logic::One);           // no queue entry exists now
    c.runUntil(2 * kNanosecond);        // must still propagate the change
    EXPECT_EQ(y.value(), Logic::One);
}

TEST(Scheduler, NextEventTimePeek)
{
    Circuit c;
    EXPECT_EQ(c.scheduler().nextEventTime(), kTimeMax);
    c.scheduler().scheduleAction(7 * kNanosecond, [] {});
    EXPECT_EQ(c.scheduler().nextEventTime(), 7 * kNanosecond);
}

TEST(Scheduler, LastValueTracksPreviousValue)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(kNanosecond, [&] { s.scheduleInertial(Logic::One, 0); });
    c.scheduler().scheduleAction(2 * kNanosecond, [&] { s.scheduleInertial(Logic::Zero, 0); });
    c.runUntil(3 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    EXPECT_EQ(s.lastValue(), Logic::One);
}

TEST(Scheduler, SameTimeTransactionsDispatchBeforeActionsInSeqOrder)
{
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::Zero);
    std::vector<std::string> log;
    SignalWatch::onEvent(a, [&] { log.push_back("txn a"); });
    SignalWatch::onEvent(b, [&] { log.push_back("txn b"); });
    c.process("p", [&] { log.push_back("process"); }, {&a});
    c.scheduler().start();
    log.clear();

    // Interleaved in schedule order: action, txn, action, txn, action.
    Scheduler& sched = c.scheduler();
    sched.scheduleAction(kNanosecond, [&] { log.push_back("action 1"); });
    b.scheduleTransport(Logic::One, kNanosecond);
    sched.scheduleAction(kNanosecond, [&] { log.push_back("action 2"); });
    a.scheduleTransport(Logic::One, kNanosecond);
    sched.scheduleAction(kNanosecond, [&] { log.push_back("action 3"); });
    const std::uint64_t waves = sched.deltaCycles();
    c.runUntil(2 * kNanosecond);

    EXPECT_EQ(log, (std::vector<std::string>{"txn b", "txn a", "action 1", "action 2",
                                             "action 3", "process"}));
    EXPECT_EQ(sched.deltaCycles() - waves, 1u); // one wave
    EXPECT_EQ(sched.eventsDispatched(), 5u);
}

TEST(Scheduler, ActionScheduledAtNowRunsInNextWaveOfSameTime)
{
    Circuit c;
    Scheduler& sched = c.scheduler();
    std::vector<std::pair<SimTime, std::uint64_t>> seen; // (time, wave id)
    sched.scheduleAction(3 * kNanosecond, [&] {
        seen.emplace_back(sched.now(), sched.waveId());
        sched.scheduleAction(sched.now(), [&] {
            seen.emplace_back(sched.now(), sched.waveId());
        });
    });
    c.runUntil(5 * kNanosecond);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, 3 * kNanosecond);
    EXPECT_EQ(seen[1].first, 3 * kNanosecond);
    EXPECT_EQ(seen[1].second, seen[0].second + 1);
    EXPECT_EQ(sched.pendingEvents(), 0u);
}

TEST(Scheduler, RestoreDropsActionsPendingAtCapture)
{
    Circuit c;
    Scheduler& sched = c.scheduler();
    auto& s = c.logicSignal("s", Logic::Zero);
    std::vector<std::string> fired;
    sched.scheduleAction(4 * kNanosecond, [&] { fired.push_back("before capture"); });
    s.scheduleTransport(Logic::One, 6 * kNanosecond);
    c.runUntil(2 * kNanosecond);

    snapshot::Writer w;
    sched.captureState(w);
    s.captureState(w);
    sched.scheduleAction(3 * kNanosecond, [&] { fired.push_back("after capture"); });

    // Restore into the same kernel: every closure queued before the restore
    // is gone, the captured transaction is back.
    snapshot::Reader r(w.bytes());
    sched.restoreState(r, [&](const std::string& name) -> SignalBase& {
        return c.findSignal(name);
    });
    s.restoreState(r);
    EXPECT_EQ(sched.pendingEvents(), 1u);
    sched.scheduleAction(5 * kNanosecond, [&] { fired.push_back("after restore"); });
    c.runUntil(10 * kNanosecond);

    EXPECT_EQ(fired, (std::vector<std::string>{"after restore"}));
    EXPECT_EQ(s.value(), Logic::One);
    EXPECT_EQ(s.lastEventTime(), 6 * kNanosecond);
    EXPECT_EQ(sched.pendingEvents(), 0u);
}

TEST(Scheduler, QueueDrainsAfterLongClockedRun)
{
    Circuit c;
    Scheduler& sched = c.scheduler();
    auto& clk = c.logicSignal("clk", Logic::Zero);
    auto& n1 = c.logicSignal("n1", Logic::U);
    auto& n2 = c.logicSignal("n2", Logic::U);
    NotGate inv(c, "inv", clk, n1);
    BufGate buf(c, "buf", n1, n2);
    int edges = 0;
    std::uint64_t n2Events = 0;
    SignalWatch::onEvent(n2, [&] { ++n2Events; });
    constexpr int kEdges = 20000;
    std::function<void()> toggle = [&] {
        // Two writes per edge: the first is canceled by the second (inertial),
        // so canceled entries go through the queue as well.
        clk.scheduleInertial(Logic::X, 10 * kPicosecond);
        clk.scheduleInertial(flipped(clk.value()), 0);
        if (++edges < kEdges) {
            sched.scheduleAction(sched.now() + kNanosecond, toggle);
        }
    };
    sched.scheduleAction(kNanosecond, toggle);
    c.runUntil(static_cast<SimTime>(kEdges + 10) * kNanosecond);

    EXPECT_EQ(edges, kEdges);
    EXPECT_EQ(n2Events, static_cast<std::uint64_t>(kEdges) + 1); // U -> 1 at start
    EXPECT_EQ(sched.pendingEvents(), 0u);
    EXPECT_LE(sched.queueHighWater(), 4u);
}

// --- dispatch order against a (time, seq)-sorted reference -----------------

/// One step of a random program: an inertial or transport write to signal
/// @c sig, or a follow-up action @c delay from now.
struct Op {
    enum Kind { Inertial, Transport, Action } kind;
    int sig;
    int value;
    SimTime delay;
};

constexpr int kSignals = 4;
constexpr std::uint64_t kMaxActions = 400;

/// The ops action @p id performs when it runs: a pure function of the seed
/// and the id, so the kernel and the reference replay the same program.
/// Delays come from four values (two of them zero for actions) so many
/// entries share a time and actions re-arm at the current time.
std::vector<Op> planFor(std::uint64_t seed, std::uint64_t id, int maxOps)
{
    static constexpr SimTime kWriteDelays[] = {0, kNanosecond, 2 * kNanosecond,
                                               5 * kNanosecond};
    static constexpr SimTime kActionDelays[] = {0, 0, kNanosecond, 3 * kNanosecond};
    Rng rng(seed * 0x9E3779B97F4A7C15ull + id);
    std::vector<Op> ops(rng.below(static_cast<std::uint64_t>(maxOps) + 1));
    for (Op& op : ops) {
        const std::uint64_t pick = rng.below(4);
        op.kind = pick < 2 ? Op::Inertial : pick == 2 ? Op::Transport : Op::Action;
        op.sig = static_cast<int>(rng.below(kSignals));
        op.value = static_cast<int>(rng.below(3));
        op.delay = op.kind == Op::Action ? kActionDelays[rng.below(4)]
                                         : kWriteDelays[rng.below(4)];
    }
    return ops;
}

/// (time, signal or -1 for an action, txn id or action id) of one dispatch.
using Dispatch = std::tuple<SimTime, int, std::uint64_t>;

/// A signal that logs every transaction the kernel hands it, canceled ones
/// included (they are dispatched too, and then ignored).
class LoggedSignal : public Signal<int> {
public:
    LoggedSignal(Scheduler& sched, int index, std::vector<Dispatch>& log)
        : Signal<int>(sched, "s" + std::to_string(index), 0), index_(index), log_(&log)
    {
    }
    void applyTxn(std::uint64_t id) override
    {
        log_->emplace_back(scheduler().now(), index_, id);
        Signal<int>::applyTxn(id);
    }

private:
    int index_;
    std::vector<Dispatch>* log_;
};

/// The program run on the real kernel.
struct KernelRun {
    explicit KernelRun(std::uint64_t s) : seed(s)
    {
        for (int i = 0; i < kSignals; ++i) {
            sigs.push_back(std::make_unique<LoggedSignal>(sched, i, log));
        }
    }
    void perform(const std::vector<Op>& ops)
    {
        for (const Op& op : ops) {
            if (op.kind == Op::Inertial) {
                sigs[static_cast<std::size_t>(op.sig)]->scheduleInertial(op.value, op.delay);
            } else if (op.kind == Op::Transport) {
                sigs[static_cast<std::size_t>(op.sig)]->scheduleTransport(op.value, op.delay);
            } else {
                const std::uint64_t id = nextAction++;
                sched.scheduleAction(sched.now() + op.delay, [this, id] {
                    log.emplace_back(sched.now(), -1, id);
                    perform(planFor(seed, id, id < kMaxActions ? 4 : 0));
                });
            }
        }
    }
    std::uint64_t seed;
    Scheduler sched;
    std::vector<Dispatch> log;
    std::vector<std::unique_ptr<LoggedSignal>> sigs;
    std::uint64_t nextAction = 0;
};

/// The same program on a reference that keeps one flat list and sorts it by
/// (time, seq) before every wave: transactions apply first, then actions,
/// each in seq order; a wave's own pushes wait for the next wave.
struct ReferenceRun {
    struct Pending {
        SimTime time;
        std::uint64_t seq;
        int sig;
        std::uint64_t id;
    };
    explicit ReferenceRun(std::uint64_t s) : seed(s) {}
    void push(SimTime t, int sig, std::uint64_t id)
    {
        pending.push_back(Pending{t, seq++, sig, id});
        highWater = std::max<std::uint64_t>(highWater, pending.size());
    }
    void perform(const std::vector<Op>& ops)
    {
        for (const Op& op : ops) {
            if (op.kind == Op::Action) {
                push(now + op.delay, -1, nextAction++);
            } else {
                push(now + op.delay, op.sig, nextTxn[static_cast<std::size_t>(op.sig)]++);
            }
        }
    }
    [[nodiscard]] SimTime nextTime() const
    {
        SimTime t = kTimeMax;
        for (const Pending& p : pending) {
            t = std::min(t, p.time);
        }
        return t;
    }
    void runUntil(SimTime tEnd)
    {
        while (nextTime() <= tEnd) {
            now = std::max(now, nextTime());
            while (nextTime() <= now) {
                std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
                    return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
                });
                const auto split = std::partition_point(
                    pending.begin(), pending.end(),
                    [this](const Pending& p) { return p.time <= now; });
                const std::vector<Pending> due(pending.begin(), split);
                pending.erase(pending.begin(), split);
                ++waves;
                for (const Pending& p : due) {
                    if (p.sig >= 0) {
                        log.emplace_back(now, p.sig, p.id);
                    }
                }
                for (const Pending& p : due) {
                    if (p.sig < 0) {
                        log.emplace_back(now, -1, p.id);
                        perform(planFor(seed, p.id, p.id < kMaxActions ? 4 : 0));
                    }
                }
            }
        }
        now = std::max(now, tEnd);
    }
    std::uint64_t seed;
    std::vector<Pending> pending;
    std::vector<Dispatch> log;
    std::vector<std::uint64_t> nextTxn = std::vector<std::uint64_t>(kSignals, 0);
    SimTime now = 0;
    std::uint64_t seq = 0;
    std::uint64_t waves = 0;
    std::uint64_t highWater = 0;
    std::uint64_t nextAction = 0;
};

TEST(Scheduler, DispatchOrderMatchesTimeSeqReference)
{
    static constexpr SimTime kSteps[] = {0, kNanosecond, 3 * kNanosecond, 7 * kNanosecond};
    constexpr std::uint64_t kRootIds = 1ull << 32; // root plans, apart from action ids
    std::uint64_t sharedTime = 0; // dispatches at the time of the one before
    std::uint64_t deltaWaves = 0; // waves beyond the first at their time
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        KernelRun kernel(seed);
        ReferenceRun ref(seed);
        Rng rng(seed);
        for (int round = 0; round < 40; ++round) {
            // Writes and actions pushed from outside the kernel, between runs.
            const std::vector<Op> root = planFor(seed, kRootIds + static_cast<std::uint64_t>(round), 8);
            kernel.perform(root);
            ref.perform(root);
            const SimTime tEnd = kernel.sched.now() + kSteps[rng.below(4)];
            kernel.sched.runUntil(tEnd);
            ref.runUntil(tEnd);
            ASSERT_EQ(kernel.log, ref.log) << "seed " << seed << " round " << round;
            ASSERT_EQ(kernel.sched.now(), ref.now);
            ASSERT_EQ(kernel.sched.pendingEvents(), ref.pending.size());
            ASSERT_EQ(kernel.sched.queueHighWater(), ref.highWater);
            ASSERT_EQ(kernel.sched.nextEventTime(), ref.nextTime());
            ASSERT_EQ(kernel.sched.deltaCycles(), ref.waves);
            ASSERT_EQ(kernel.sched.eventsDispatched(), ref.log.size());
        }
        std::uint64_t times = ref.log.empty() ? 0 : 1;
        for (std::size_t i = 1; i < ref.log.size(); ++i) {
            const bool same = std::get<0>(ref.log[i]) == std::get<0>(ref.log[i - 1]);
            sharedTime += same ? 1 : 0;
            times += same ? 0 : 1;
        }
        deltaWaves += ref.waves - times;
    }
    // The programs are not vacuous: many dispatches share a time, and many
    // times run more than one wave.
    EXPECT_GT(sharedTime, 5000u);
    EXPECT_GT(deltaWaves, 500u);
}

} // namespace
} // namespace gfi::digital
