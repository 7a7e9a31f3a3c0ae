// Fault-tolerant campaign engine: run containment, watchdogs, retry policy
// and checkpoint/resume. Injected runs are *expected* to misbehave — these
// tests drive the campaign over deliberately pathological testbenches (a
// NaN-producing analog element, a delta-cycle oscillator, a run that never
// finishes) and assert that every one becomes a classified data point
// instead of a crash or a hang, and that an interrupted campaign resumes
// from its journal without re-simulating completed faults.

#include "analog/passive.hpp"
#include "analog/sources.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "duts/digital_dut.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

namespace gfi::campaign {
namespace {

// One bench exposing all three pathologies as armable parametric faults;
// the golden run (nothing armed) is clean.
//
//   "src/amps"  — scales a current source level (NaN factor => divergence)
//   "src/flaky" — NaN on the first armed run only (retry-then-succeed flake)
//   "osc/en"    — enables a zero-delay combinational loop (delta-cycle limit)
//   "hang"      — starts a 1 fs self-rescheduling action (run never finishes)
std::unique_ptr<fault::Testbench> makeChaosBench(std::shared_ptr<int> flakyArms = nullptr)
{
    auto tb = std::make_unique<fault::Testbench>();
    auto& ana = tb->sim().analog();
    auto& dig = tb->sim().digital();

    const analog::NodeId n1 = ana.node("n1");
    auto& src = ana.add<analog::CurrentSource>(ana, "src", n1, analog::kGround, 1e-3);
    ana.add<analog::Resistor>(ana, "r1", n1, analog::kGround, 1e3);
    tb->observeAnalog("n1");
    tb->addParameter("src/amps", [&src](double f) { src.setLevel(1e-3 * f); });
    if (flakyArms) {
        tb->addParameter("src/flaky", [&src, flakyArms](double) {
            if (++*flakyArms == 1) {
                src.setLevel(std::nan(""));
            }
        });
    }

    auto& en = dig.logicSignal("osc/en", digital::Logic::Zero);
    auto& loop = dig.logicSignal("osc/loop", digital::Logic::Zero);
    dig.process(
        "osc/proc",
        [&en, &loop] {
            if (en.value() == digital::Logic::One) {
                loop.scheduleInertial(digital::logicNot(loop.value()), 0);
            }
        },
        {&en, &loop});
    tb->addParameter("osc/en", [&en](double) { en.forceValue(digital::Logic::One); });
    dig.scheduler().setDeltaLimit(5'000); // keep the oscillation cheap to detect

    auto& sched = dig.scheduler();
    tb->addParameter("hang", [&sched](double) {
        auto fn = std::make_shared<std::function<void()>>();
        // The lambda holds only a weak self-reference; the strong one lives
        // in the scheduled action, so destroying the scheduler frees it.
        std::weak_ptr<std::function<void()>> weak = fn;
        *fn = [&sched, weak] {
            // Burn real time so the wall-clock deadline is reachable long
            // before the 1 fs-at-a-time crawl covers the run duration.
            volatile std::uint64_t sink = 0;
            for (int i = 0; i < 20'000; ++i) {
                sink = sink + 1;
            }
            if (auto self = weak.lock()) {
                sched.scheduleAction(sched.now() + 1, [self] { (*self)(); });
            }
        };
        (*fn)();
    });

    tb->setDuration(100 * kNanosecond);
    return tb;
}

fault::FaultSpec divergingFault()
{
    return fault::ParametricFault{"src/amps", std::nan(""), 0};
}

fault::FaultSpec oscillatorFault()
{
    return fault::ParametricFault{"osc/en", 1.0, 10 * kNanosecond};
}

fault::FaultSpec hangingFault()
{
    return fault::ParametricFault{"hang", 1.0, kNanosecond};
}

TEST(CampaignRobustness, NanAnalogElementClassifiesAsDiverged)
{
    CampaignRunner runner([] { return makeChaosBench(); });
    const RunResult r = runner.runOne(divergingFault());
    EXPECT_EQ(r.outcome, Outcome::Diverged);
    EXPECT_FALSE(r.diagnostics.error.empty());
    EXPECT_EQ(r.diagnostics.attempts, 1);
}

TEST(CampaignRobustness, DeltaCycleOscillatorClassifiesAsSimError)
{
    CampaignRunner runner([] { return makeChaosBench(); });
    const RunResult r = runner.runOne(oscillatorFault());
    EXPECT_EQ(r.outcome, Outcome::SimError);
    // The improved limit error names the limit, the time and the loop signal.
    EXPECT_NE(r.diagnostics.error.find("delta-cycle limit"), std::string::npos);
    EXPECT_NE(r.diagnostics.error.find("10 ns"), std::string::npos);
    EXPECT_NE(r.diagnostics.error.find("osc/loop"), std::string::npos);
    // ... and the detail table surfaces it.
    CampaignReport report;
    report.runs.push_back(r);
    EXPECT_NE(report.detailTable().find("delta-cycle limit"), std::string::npos);
}

TEST(CampaignRobustness, HangingRunTripsWallClockWatchdog)
{
    CampaignRunner runner([] { return makeChaosBench(); });
    WatchdogConfig wd;
    wd.wallClockSeconds = 0.05;
    runner.setWatchdogConfig(wd);
    const RunResult r = runner.runOne(hangingFault());
    EXPECT_EQ(r.outcome, Outcome::Timeout);
    EXPECT_NE(r.diagnostics.error.find("wall-clock"), std::string::npos);
    EXPECT_GT(r.diagnostics.digitalWaves, 0u);
}

TEST(CampaignRobustness, HangingRunTripsWaveBudget)
{
    CampaignRunner runner([] { return makeChaosBench(); });
    WatchdogConfig wd;
    wd.digitalWaves = 20'000;
    runner.setWatchdogConfig(wd);
    const RunResult r = runner.runOne(hangingFault());
    EXPECT_EQ(r.outcome, Outcome::Timeout);
    EXPECT_NE(r.diagnostics.error.find("wave budget"), std::string::npos);
}

TEST(CampaignRobustness, AnalogStepBudgetTripsOnSlowSolve)
{
    CampaignRunner runner([] { return makeChaosBench(); });
    WatchdogConfig wd;
    wd.analogSteps = 3; // absurdly small: even the clean run exceeds it
    runner.setWatchdogConfig(wd);
    const RunResult r = runner.runOne(fault::ParametricFault{"src/amps", 2.0, 0});
    EXPECT_EQ(r.outcome, Outcome::Timeout);
    EXPECT_NE(r.diagnostics.error.find("step budget"), std::string::npos);
}

TEST(CampaignRobustness, RetryPolicyRecoversFlakyRun)
{
    auto flakyArms = std::make_shared<int>(0);
    CampaignRunner runner([flakyArms] { return makeChaosBench(flakyArms); });
    RetryPolicy retry;
    retry.maxAttempts = 2;
    runner.setRetryPolicy(retry);
    // First armed attempt drives the source to NaN; the retry is clean.
    const RunResult r = runner.runOne(fault::ParametricFault{"src/flaky", 1.0, 0});
    EXPECT_EQ(r.diagnostics.attempts, 2);
    EXPECT_FALSE(isAbnormal(r.outcome));
    EXPECT_EQ(*flakyArms, 2);
}

TEST(CampaignRobustness, RetryDisabledKeepsFirstVerdict)
{
    auto flakyArms = std::make_shared<int>(0);
    CampaignRunner runner([flakyArms] { return makeChaosBench(flakyArms); });
    const RunResult r = runner.runOne(fault::ParametricFault{"src/flaky", 1.0, 0});
    EXPECT_EQ(r.outcome, Outcome::Diverged);
    EXPECT_EQ(r.diagnostics.attempts, 1);
}

// The acceptance scenario: one campaign containing a solver-diverging fault,
// a scheduler-limit fault and a hanging fault runs to completion with no
// exception escaping run(), classifies all three, and the summary table
// carries every outcome category.
TEST(CampaignRobustness, PathologicalCampaignRunsToCompletion)
{
    CampaignRunner runner([] { return makeChaosBench(); });
    WatchdogConfig wd;
    wd.wallClockSeconds = 0.05;
    runner.setWatchdogConfig(wd);

    const std::vector<fault::FaultSpec> faults{
        fault::FaultSpec{},  // golden: silent
        divergingFault(), oscillatorFault(), hangingFault()};
    CampaignReport report;
    ASSERT_NO_THROW(report = runner.run(faults));
    ASSERT_EQ(report.runs.size(), 4u);
    EXPECT_EQ(report.runs[0].outcome, Outcome::Silent);
    EXPECT_EQ(report.runs[1].outcome, Outcome::Diverged);
    EXPECT_EQ(report.runs[2].outcome, Outcome::SimError);
    EXPECT_EQ(report.runs[3].outcome, Outcome::Timeout);

    const std::string summary = report.summaryTable();
    for (Outcome o : kAllOutcomes) {
        EXPECT_NE(summary.find(toString(o)), std::string::npos)
            << "summaryTable drops outcome " << toString(o);
    }
}

// --- journal / checkpoint-resume -------------------------------------------

TEST(CampaignRobustness, JournalEntryRoundTrips)
{
    RunResult r;
    r.fault = fault::BitFlipFault{"dut/cnt", 3, 17 * kNanosecond};
    r.outcome = Outcome::Diverged;
    r.firstOutputError = 12345;
    r.totalOutputErrorTime = 999;
    r.maxAnalogDeviation = 0.125;
    r.erredSignals = {"out[0]", "vctl"};
    r.corruptedState = {"dut/cnt"};
    r.diagnostics.error = "TransientSolver: step \"failed\"\nat t=1e-9";
    r.diagnostics.attempts = 3;
    r.diagnostics.digitalWaves = 42;
    r.diagnostics.analogSteps = 77;

    const std::string line = CampaignJournal::entryToJson(7, r);
    const auto parsed = CampaignJournal::parseLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->index, 7u);
    EXPECT_EQ(parsed->faultDescription, fault::describe(r.fault));
    EXPECT_EQ(parsed->result.outcome, Outcome::Diverged);
    EXPECT_EQ(parsed->result.firstOutputError, 12345);
    EXPECT_EQ(parsed->result.totalOutputErrorTime, 999);
    EXPECT_EQ(parsed->result.erredSignals, r.erredSignals);
    EXPECT_EQ(parsed->result.corruptedState, r.corruptedState);
    EXPECT_EQ(parsed->result.diagnostics.error, r.diagnostics.error);
    EXPECT_EQ(parsed->result.diagnostics.attempts, 3);
    EXPECT_EQ(parsed->result.diagnostics.digitalWaves, 42u);
    EXPECT_TRUE(parsed->result.diagnostics.fromJournal);

    EXPECT_FALSE(CampaignJournal::parseLine("not json").has_value());
    EXPECT_FALSE(CampaignJournal::parseLine("").has_value());
}

TEST(CampaignRobustness, JournalResumeSkipsCompletedFaults)
{
    const std::string path = ::testing::TempDir() + "gfi_resume_test.jsonl";
    std::remove(path.c_str());

    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{"dut/out_reg", 0, 2 * kMicrosecond},
        fault::BitFlipFault{"dut/cnt", 1, 2 * kMicrosecond},
        fault::BitFlipFault{"dut/cnt", 2, 2 * kMicrosecond},
    };

    // Phase 1: "killed" campaign — only the first two faults completed.
    auto builds1 = std::make_shared<std::atomic<int>>(0);
    CampaignRunner first([builds1] {
        builds1->fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<duts::DigitalDutTestbench>();
    });
    first.setJournalPath(path);
    first.setWorkers(1); // pooled testbenches: builds count workers, not faults
    const CampaignReport partial =
        first.run({faults.begin(), faults.begin() + 2});
    ASSERT_EQ(partial.runs.size(), 2u);
    EXPECT_EQ(builds1->load(), 2); // golden + the one worker's testbench
    EXPECT_FALSE(partial.runs[0].diagnostics.fromJournal);
    EXPECT_FALSE(partial.runs[1].diagnostics.fromJournal);

    // Phase 2: fresh runner, same journal, full fault list: only the third
    // fault may simulate (plus the golden reference).
    auto builds2 = std::make_shared<std::atomic<int>>(0);
    CampaignRunner second([builds2] {
        builds2->fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<duts::DigitalDutTestbench>();
    });
    second.setJournalPath(path);
    const CampaignReport full = second.run(faults);
    ASSERT_EQ(full.runs.size(), 3u);
    EXPECT_EQ(builds2->load(), 2); // golden + fault #3 only: nothing was re-run
    EXPECT_TRUE(full.runs[0].diagnostics.fromJournal);
    EXPECT_TRUE(full.runs[1].diagnostics.fromJournal);
    EXPECT_FALSE(full.runs[2].diagnostics.fromJournal);
    EXPECT_EQ(full.runs[0].outcome, partial.runs[0].outcome);
    EXPECT_EQ(full.runs[1].outcome, partial.runs[1].outcome);
    // The restored result re-attaches the FaultSpec from the current list.
    EXPECT_EQ(fault::describe(full.runs[1].fault), fault::describe(faults[1]));

    // Phase 3: a *different* fault at a journaled index must re-simulate —
    // the journal validates descriptions, not just indices.
    auto builds3 = std::make_shared<std::atomic<int>>(0);
    CampaignRunner third([builds3] {
        builds3->fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<duts::DigitalDutTestbench>();
    });
    third.setJournalPath(path);
    std::vector<fault::FaultSpec> changed = faults;
    changed[0] = fault::BitFlipFault{"dut/out_reg", 5, 3 * kMicrosecond};
    const CampaignReport revised = third.run(changed);
    EXPECT_EQ(builds3->load(), 2); // golden + changed fault #0
    EXPECT_FALSE(revised.runs[0].diagnostics.fromJournal);
    EXPECT_TRUE(revised.runs[1].diagnostics.fromJournal);

    std::remove(path.c_str());
}

TEST(CampaignRobustness, TornJournalLinesAreCountedAndSkipped)
{
    const std::string path = ::testing::TempDir() + "gfi_torn_journal.jsonl";
    std::remove(path.c_str());

    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{"dut/out_reg", 0, 2 * kMicrosecond},
        fault::BitFlipFault{"dut/out_reg", 1, 2 * kMicrosecond},
        fault::BitFlipFault{"dut/cnt", 2, 2 * kMicrosecond},
    };
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    {
        CampaignRunner first(factory);
        first.setJournalPath(path);
        (void)first.run({faults.begin(), faults.begin() + 2});
        EXPECT_EQ(first.run({faults.begin(), faults.begin() + 2}).journalSkippedLines,
                  0u); // a clean journal reports no skips
    }

    // Corrupt the checkpoint: one line torn mid-record (a kill between write
    // and flush) and one line of on-disk garbage. Blank lines don't count.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"index\": 2, \"fault\": \"torn-off-mid-rec\n"
            << "\n"
            << "%%% not a journal line %%%\n";
    }
    const auto loaded = CampaignJournal::loadWithStats(path);
    EXPECT_EQ(loaded.entries.size(), 2u); // restored runs are never re-appended
    EXPECT_EQ(loaded.skippedLines, 2u);

    CampaignRunner resumed(factory);
    resumed.setJournalPath(path);
    const CampaignReport report = resumed.run(faults);
    ASSERT_EQ(report.runs.size(), 3u);
    EXPECT_EQ(report.journalSkippedLines, 2u);
    EXPECT_TRUE(report.runs[0].diagnostics.fromJournal);
    EXPECT_TRUE(report.runs[1].diagnostics.fromJournal);
    EXPECT_FALSE(report.runs[2].diagnostics.fromJournal);
    // The summary footer surfaces the loss to the operator.
    EXPECT_NE(report.summaryTable().find("journal lines skipped"), std::string::npos);
    EXPECT_NE(report.summaryTable().find("torn/corrupt"), std::string::npos);

    std::remove(path.c_str());
}

TEST(CampaignRobustness, JournalRecordsAbnormalOutcomes)
{
    const std::string path = ::testing::TempDir() + "gfi_abnormal_journal.jsonl";
    std::remove(path.c_str());

    CampaignRunner runner([] { return makeChaosBench(); });
    runner.setJournalPath(path);
    (void)runner.run({divergingFault(), oscillatorFault()});

    const auto entries = CampaignJournal::loadWithStats(path).entries;
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].result.outcome, Outcome::Diverged);
    EXPECT_EQ(entries[1].result.outcome, Outcome::SimError);
    EXPECT_FALSE(entries[1].result.diagnostics.error.empty());

    // Resuming the same list re-simulates nothing, abnormal runs included.
    auto builds = std::make_shared<std::atomic<int>>(0);
    CampaignRunner resumed([builds] {
        builds->fetch_add(1, std::memory_order_relaxed);
        return makeChaosBench();
    });
    resumed.setJournalPath(path);
    const CampaignReport report = resumed.run({divergingFault(), oscillatorFault()});
    EXPECT_EQ(builds->load(), 1); // golden only
    EXPECT_EQ(report.runs[0].outcome, Outcome::Diverged);
    std::remove(path.c_str());
}

} // namespace
} // namespace gfi::campaign
