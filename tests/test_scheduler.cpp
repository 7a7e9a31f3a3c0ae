// Unit tests for the event-driven kernel: ordering, delta cycles, inertial vs
// transport delay, edges and process wake-up semantics.

#include "digital/circuit.hpp"
#include "digital/gates.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
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

} // namespace
} // namespace gfi::digital
