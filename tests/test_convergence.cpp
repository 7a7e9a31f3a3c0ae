// Convergence exit: a transient run whose canonical state is golden's again
// takes golden's final state and skips the suffix, with every output byte a
// full run's. What the option matrix cannot show lives here: the canonical
// state's boundary (what it must and must not hold), the mark schedule, a
// wave budget that only the skipped suffix would exceed, and journal lines
// (probes included) held against fresh full runs. Also the snapshot layout
// digest's fallback: a mismatched layout keeps today's per-entry texts.

#include "campaign_harness.hpp"

#include "ams/convergence.hpp"
#include "core/journal.hpp"
#include "duts/digital_dut.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace gfi {
namespace {

using campaign::CampaignRunner;
using campaign::RunResult;
using digital::Logic;

fault::TestbenchFactory dutFactory()
{
    return [] { return std::make_unique<duts::DigitalDutTestbench>(); };
}

/// Bit flips on every DigitalDut state bit 0 and a SET on every saboteur:
/// many converge, some never do.
std::vector<fault::FaultSpec> dutFaults()
{
    const duts::DigitalDutTestbench probe;
    const SimTime t = kMicrosecond + 7 * kNanosecond;
    std::vector<fault::FaultSpec> faults;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        faults.emplace_back(fault::BitFlipFault{name, 0, t});
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        faults.emplace_back(fault::DigitalPulseFault{sab, t, 5 * kNanosecond});
    }
    return faults;
}

std::size_t convergedRuns(const campaign::CampaignReport& report)
{
    std::size_t n = 0;
    for (const RunResult& r : report.runs) {
        n += r.diagnostics.convergedAt >= 0 ? 1 : 0;
    }
    return n;
}

// ---------------------------------------------------------------------------
// The canonical state's boundary

// A canceled inertial transaction still costs its wave when it comes due, so
// two states that differ only in one never match.
TEST(ConvergenceExit, CanceledPendingTransactionNeverMatches)
{
    ams::MixedSimulator a;
    ams::MixedSimulator b;
    auto& sa = a.digital().logicSignal("s", Logic::Zero);
    auto& sb = b.digital().logicSignal("s", Logic::Zero);
    a.run(kNanosecond);
    b.run(kNanosecond);
    sa.scheduleInertial(Logic::Zero, 5 * kNanosecond);
    sa.scheduleInertial(Logic::One, 5 * kNanosecond); // cancels the first
    sb.scheduleInertial(Logic::One, 5 * kNanosecond);
    EXPECT_EQ(sa.pendingCount(), sb.pendingCount());
    EXPECT_NE(a.canonicalState(), b.canonicalState());

    a.run(10 * kNanosecond);
    b.run(10 * kNanosecond);
    EXPECT_EQ(sa.value(), sb.value());
    EXPECT_EQ(a.canonicalState(), b.canonicalState());
    EXPECT_EQ(a.digital().scheduler().eventsDispatched(),
              b.digital().scheduler().eventsDispatched() + 1)
        << "the canceled transaction was dispatched";
}

// previous_, lastEventTime_, lastEventStamp_ and nextTxnId_ are read only in
// the wave of a fresh event, which overwrites them: states that differ only
// there match, and continue identically.
TEST(ConvergenceExit, PreviousValueAndEventTimeDoNotCount)
{
    struct Design {
        ams::MixedSimulator sim;
        digital::LogicSignal& s = sim.digital().logicSignal("s", Logic::Zero);
        digital::LogicSignal& rises = sim.digital().logicSignal("rises", Logic::Zero);
        Design()
        {
            sim.digital().process("edge", [this] {
                if (digital::risingEdge(s)) {
                    rises.scheduleInertial(rises.value() == Logic::One ? Logic::Zero : Logic::One,
                                           kNanosecond);
                }
            }, {&s});
        }
    };
    Design a;
    Design b;
    a.s.scheduleTransport(Logic::X, 2 * kNanosecond);
    a.s.scheduleTransport(Logic::Zero, 4 * kNanosecond);
    b.s.scheduleTransport(Logic::Zero, 3 * kNanosecond); // no event: already 0
    a.sim.run(10 * kNanosecond);
    b.sim.run(10 * kNanosecond);
    EXPECT_EQ(a.s.value(), b.s.value());
    EXPECT_NE(a.s.lastValue(), b.s.lastValue());
    EXPECT_NE(a.s.lastEventTime(), b.s.lastEventTime());
    EXPECT_NE(a.sim.digital().scheduler().deltaCycles(),
              b.sim.digital().scheduler().deltaCycles());
    EXPECT_EQ(a.sim.canonicalState(), b.sim.canonicalState());

    for (Design* d : {&a, &b}) {
        d->s.scheduleInertial(Logic::One, kNanosecond); // a fresh rising edge
        d->sim.run(20 * kNanosecond);
        EXPECT_EQ(d->rises.value(), Logic::One);
    }
    EXPECT_EQ(a.sim.canonicalState(), b.sim.canonicalState());
}

// ---------------------------------------------------------------------------
// The plan

// Marks sit at the 1st, 2nd, 4th, 8th, ... golden event time after a fault's
// last action and before the duration, and the plan replays golden exactly.
TEST(ConvergenceExit, PlanMarksTheDoublingEventTimes)
{
    duts::DigitalDutTestbench golden;
    golden.run();
    duts::DigitalDutTestbench twin;
    const SimTime last = kMicrosecond + 7 * kNanosecond;
    const ams::ConvergencePlan plan =
        ams::ConvergencePlan::record(twin.sim(), golden.duration(), {last});
    EXPECT_EQ(twin.sim().canonicalState(), golden.sim().canonicalState());
    EXPECT_EQ(plan.finalCounters().waves, golden.sim().digital().scheduler().deltaCycles());

    const std::vector<SimTime>& times = plan.eventTimes();
    const auto first = static_cast<std::size_t>(
        std::upper_bound(times.begin(), times.end(), last) - times.begin());
    std::size_t marks = 0;
    for (std::size_t k = 1; first + k - 1 < times.size(); ++k) {
        const SimTime t = times[first + k - 1];
        const bool expected = ams::ConvergencePlan::isCheckOrdinal(k) && t < plan.duration();
        EXPECT_EQ(plan.markAt(t) != nullptr, expected) << "ordinal " << k;
        marks += expected ? 1 : 0;
    }
    EXPECT_GE(marks, 4u);
    EXPECT_EQ(plan.markAt(times[first - 1]), nullptr) << "no mark at or before the action";
}

// ---------------------------------------------------------------------------
// Campaign contracts

// A wave budget the run fits up to the mark but not with the suffix: the run
// does not exit, and times out on the same wave, with the same message and
// the same forensic dump, as a fresh full run.
TEST(ConvergenceExit, BudgetOnlyTheSuffixWouldExceedStillTimesOut)
{
    const std::vector<fault::FaultSpec> faults = dutFaults();
    CampaignRunner unmetered(dutFactory());
    unmetered.setWorkers(1);
    unmetered.setRecordTiming(false);
    const campaign::CampaignReport full = unmetered.run(faults);
    std::size_t k = faults.size();
    for (std::size_t i = 0; i < faults.size() && k == faults.size(); ++i) {
        if (full.runs[i].diagnostics.wavesSkipped > 0) {
            k = i;
        }
    }
    ASSERT_LT(k, faults.size()) << "no run converged";
    const std::uint64_t budget = full.runs[k].diagnostics.digitalWaves - 1;

    const std::string dir = ::testing::TempDir() + "gfi_convergence_budget";
    std::filesystem::remove_all(dir);
    CampaignRunner metered(dutFactory());
    metered.setWorkers(1);
    metered.setRecordTiming(false);
    metered.setWatchdogConfig(WatchdogConfig{.digitalWaves = budget});
    metered.setForensics(dir);
    const campaign::CampaignReport got = metered.run({faults[k]});
    const RunResult& r = got.runs.at(0);
    EXPECT_EQ(r.outcome, campaign::Outcome::Timeout);
    EXPECT_EQ(r.diagnostics.convergedAt, -1);
    ASSERT_FALSE(r.diagnostics.forensic.empty());

    // The oracle: a fresh testbench under the same budget, no plan.
    duts::DigitalDutTestbench tb;
    Watchdog watchdog(WatchdogConfig{.digitalWaves = budget});
    obs::FlightRecorder recorder(obs::FlightRecorder::kDefaultCapacity);
    tb.sim().setFlightRecorder(&recorder);
    tb.sim().setWatchdog(&watchdog);
    fault::armFault(tb, faults[k]);
    std::string message;
    try {
        tb.run();
    } catch (const WatchdogTimeout& e) {
        message = e.what();
    }
    EXPECT_EQ(r.diagnostics.error, message);
    EXPECT_EQ(r.diagnostics.digitalWaves, budget + 1);
    const std::string stem = dir + "/oracle";
    recorder.writeArtifacts(stem);
    EXPECT_EQ(test::slurp(r.diagnostics.forensic + ".jsonl"), test::slurp(stem + ".jsonl"));
    EXPECT_EQ(test::slurp(r.diagnostics.forensic + ".trace.json"),
              test::slurp(stem + ".trace.json"));
    std::filesystem::remove_all(dir);
}

// With telemetry attached every journal line, probes included, equals the
// line of the same fault run in full on a fresh testbench.
TEST(ConvergenceExit, JournalWithProbesEqualsFreshFullRuns)
{
    const std::vector<fault::FaultSpec> faults = dutFaults();
    const std::string path = ::testing::TempDir() + "gfi_convergence_journal.jsonl";
    const std::string oraclePath = ::testing::TempDir() + "gfi_convergence_oracle.jsonl";
    std::remove(path.c_str());
    std::remove(oraclePath.c_str());

    obs::Telemetry telemetry;
    CampaignRunner runner(dutFactory());
    runner.setWorkers(2);
    runner.setRecordTiming(false);
    runner.setJournalPath(path);
    runner.setTelemetry(telemetry);
    const campaign::CampaignReport report = runner.run(faults);
    const std::size_t converged = convergedRuns(report);
    EXPECT_GT(converged, 0u);
    EXPECT_LT(converged, faults.size()) << "some runs never rejoin golden";

    {
        campaign::CampaignJournal oracle(oraclePath);
        oracle.setEmbedProbes(true);
        for (std::size_t i = 0; i < faults.size(); ++i) {
            duts::DigitalDutTestbench tb;
            const obs::ProbeSnapshot baseline = tb.sim().sampleProbes();
            fault::armFault(tb, faults[i]);
            tb.run();
            RunResult r = runner.classify(tb, faults[i]);
            r.diagnostics.digitalWaves = tb.sim().digital().scheduler().deltaCycles();
            const auto& stats = tb.sim().solver().stats();
            r.diagnostics.analogSteps = stats.acceptedSteps + stats.rejectedSteps;
            r.diagnostics.probes = tb.sim().sampleProbes().delta(baseline);
            oracle.append(i, r);
        }
    }
    EXPECT_EQ(test::slurp(path), test::slurp(oraclePath));
    std::remove(path.c_str());
    std::remove(oraclePath.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot layout digest: a mismatch keeps today's per-entry texts

struct Named : snapshot::Snapshottable {
    void captureState(snapshot::Writer& w) const override { w.u64(7); }
    void restoreState(snapshot::Reader& r) override { (void)r.u64(); }
};

/// A two-signal design with one state-registry entry.
struct Layout {
    Layout(const std::string& signal, const std::string& entry)
    {
        sim.digital().logicSignal("a", Logic::Zero);
        sim.digital().logicSignal(signal, Logic::One);
        sim.stateRegistry().add(entry, &state);
    }
    Named state;
    ams::MixedSimulator sim;
};

std::string restoreError(const snapshot::Snapshot& snap, ams::MixedSimulator& into)
{
    try {
        into.restoreSnapshot(snap);
    } catch (const snapshot::SnapshotFormatError& e) {
        return e.what();
    }
    return "";
}

TEST(SnapshotLayout, RenamedSignalKeepsTheMismatchText)
{
    const Layout donor("b", "x");
    Layout renamed("c", "x");
    const snapshot::Snapshot snap = donor.sim.capturePreStartSnapshot();
    EXPECT_NE(snap.layout, 0u);
    EXPECT_EQ(restoreError(snap, renamed.sim), "snapshot: signal 'b' where 'c' was expected");
}

TEST(SnapshotLayout, RenamedRegistryEntryKeepsTheMismatchText)
{
    const Layout donor("b", "x");
    Layout renamed("b", "y");
    const snapshot::Snapshot snap = donor.sim.capturePreStartSnapshot();
    EXPECT_EQ(restoreError(snap, renamed.sim),
              "snapshot: registry entry 'x' does not match simulator entry 'y'");
}

// Equal digests skip the name compares; an unknown digest (0) walks them and
// restores the same state.
TEST(SnapshotLayout, EqualOrUnknownDigestRestoresTheSameState)
{
    Layout donor("b", "x");
    donor.sim.run(kNanosecond);
    snapshot::Snapshot snap = donor.sim.captureSnapshot();
    Layout twin("b", "x");
    EXPECT_EQ(restoreError(snap, twin.sim), "");
    EXPECT_EQ(twin.sim.canonicalState(), donor.sim.canonicalState());
    snap.layout = 0;
    Layout walked("b", "x");
    EXPECT_EQ(restoreError(snap, walked.sim), "");
    EXPECT_EQ(walked.sim.canonicalState(), donor.sim.canonicalState());
}

} // namespace
} // namespace gfi
