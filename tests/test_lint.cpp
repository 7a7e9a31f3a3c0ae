// Static-analysis tests: the digital netlist linter, the analog topology
// checker and the campaign preflight, each against deliberately broken
// designs — plus the "known good designs lint clean" regression and the
// campaign-runner preflight gate.

#include "adc/flash.hpp"
#include "adc/sar.hpp"
#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"
#include "core/campaign.hpp"
#include "digital/gates.hpp"
#include "digital/sequential.hpp"
#include "duts/digital_dut.hpp"
#include "duts/tiny_cpu.hpp"
#include "lint/lint.hpp"
#include "pll/pll.hpp"
#include "sim/errors.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

namespace gfi {
namespace {

// ---------------------------------------------------------------------------
// Digital netlist rules

TEST(DigitalLint, CombinationalLoopIsDig001)
{
    digital::Circuit c;
    auto& a = c.logicSignal("a", digital::Logic::Zero);
    auto& b = c.logicSignal("b", digital::Logic::U);
    c.add<digital::NotGate>(c, "inv1", a, b);
    c.add<digital::NotGate>(c, "inv2", b, a);

    const lint::Report rep = lint::lintDigital(c);
    ASSERT_TRUE(rep.hasRule("DIG001"));
    EXPECT_GT(rep.count(lint::Severity::Error), 0u);
    // The finding names both processes of the cycle and the looping signals.
    const auto findings = rep.byRule("DIG001");
    EXPECT_NE(findings.front().path.find("inv1/eval"), std::string::npos);
    EXPECT_NE(findings.front().path.find("inv2/eval"), std::string::npos);
    EXPECT_NE(findings.front().message.find("a"), std::string::npos);
}

TEST(DigitalLint, CombLoopRuntimeErrorPointsAtDig001)
{
    // The same design the linter flags statically oscillates at time zero;
    // the scheduler's delta-limit error must cross-reference the lint rule.
    digital::Circuit c;
    auto& a = c.logicSignal("a", digital::Logic::Zero);
    auto& b = c.logicSignal("b", digital::Logic::U);
    c.add<digital::NotGate>(c, "inv1", a, b, 0);
    c.add<digital::NotGate>(c, "inv2", b, a, 0);
    try {
        c.runUntil(kNanosecond);
        FAIL() << "expected SchedulerLimitError";
    } catch (const SchedulerLimitError& e) {
        EXPECT_NE(std::string(e.what()).find("DIG001"), std::string::npos);
    }
}

TEST(DigitalLint, SelfLoopGateIsDig001)
{
    digital::Circuit c;
    auto& a = c.logicSignal("a", digital::Logic::Zero);
    c.add<digital::NotGate>(c, "inv", a, a);
    EXPECT_TRUE(lint::lintDigital(c).hasRule("DIG001"));
}

TEST(DigitalLint, TwoDriversIsDig002)
{
    digital::Circuit c;
    auto& a = c.logicSignal("a", digital::Logic::Zero);
    c.noteExternalDriver(a);
    auto& y = c.logicSignal("y", digital::Logic::U);
    c.add<digital::BufGate>(c, "buf1", a, y);
    c.add<digital::BufGate>(c, "buf2", a, y);

    const lint::Report rep = lint::lintDigital(c);
    ASSERT_TRUE(rep.hasRule("DIG002"));
    EXPECT_EQ(rep.byRule("DIG002").front().path, "y");
}

TEST(DigitalLint, UndrivenInputIsDig003Warning)
{
    digital::Circuit c;
    auto& a = c.logicSignal("a", digital::Logic::U); // nobody drives a
    auto& y = c.logicSignal("y", digital::Logic::U);
    c.add<digital::BufGate>(c, "buf", a, y);

    const lint::Report rep = lint::lintDigital(c);
    ASSERT_TRUE(rep.hasRule("DIG003"));
    EXPECT_EQ(rep.byRule("DIG003").front().severity, lint::Severity::Warning);
    EXPECT_EQ(rep.byRule("DIG003").front().path, "a");
    EXPECT_FALSE(rep.clean());

    // Declaring the external stimulus clears the warning.
    c.noteExternalDriver(a);
    EXPECT_FALSE(lint::lintDigital(c).hasRule("DIG003"));
}

TEST(DigitalLint, DeadSignalIsDig004Info)
{
    digital::Circuit c;
    auto& a = c.logicSignal("a", digital::Logic::Zero);
    c.noteExternalDriver(a);
    auto& y = c.logicSignal("y", digital::Logic::U); // driven, never consumed
    c.add<digital::BufGate>(c, "buf", a, y);

    const lint::Report rep = lint::lintDigital(c);
    ASSERT_TRUE(rep.hasRule("DIG004"));
    EXPECT_EQ(rep.byRule("DIG004").front().severity, lint::Severity::Info);
    EXPECT_EQ(rep.byRule("DIG004").front().path, "y");
    EXPECT_TRUE(rep.clean()) << "infos must not fail a design";
}

TEST(DigitalLint, UnclockedRegisterIsDig005)
{
    digital::Circuit c;
    auto& clk = c.logicSignal("clk", digital::Logic::Zero); // no ClockGen
    auto& d = c.logicSignal("d", digital::Logic::Zero);
    c.noteExternalDriver(d);
    auto& q = c.logicSignal("q", digital::Logic::U);
    c.add<digital::DFlipFlop>(c, "ff", clk, d, q);

    const lint::Report rep = lint::lintDigital(c);
    ASSERT_TRUE(rep.hasRule("DIG005"));
    EXPECT_EQ(rep.byRule("DIG005").front().path, "ff/seq");

    // A clocked copy of the same design is quiet.
    digital::Circuit c2;
    auto& clk2 = c2.logicSignal("clk", digital::Logic::Zero);
    c2.add<digital::ClockGen>(c2, "clkgen", clk2, 10 * kNanosecond);
    auto& d2 = c2.logicSignal("d", digital::Logic::Zero);
    c2.noteExternalDriver(d2);
    auto& q2 = c2.logicSignal("q", digital::Logic::U);
    c2.add<digital::DFlipFlop>(c2, "ff", clk2, d2, q2);
    EXPECT_FALSE(lint::lintDigital(c2).hasRule("DIG005"));
}

// ---------------------------------------------------------------------------
// Analog topology rules

TEST(AnalogLint, FloatingIslandIsAna001)
{
    // An RC pair with no connection to the rest of the circuit: previously
    // only visible at runtime (the solve leans on gmin and produces garbage).
    analog::AnalogSystem sys;
    const analog::NodeId in = sys.node("in");
    sys.add<analog::VoltageSource>(sys, "V1", in, analog::kGround, 1.0);
    sys.add<analog::Resistor>(sys, "R1", in, analog::kGround, 1e3);
    const analog::NodeId f1 = sys.node("float1");
    const analog::NodeId f2 = sys.node("float2");
    sys.add<analog::Resistor>(sys, "Rf", f1, f2, 1e3);
    sys.add<analog::Capacitor>(sys, "Cf", f1, f2, 1e-9);

    const lint::Report rep = lint::lintAnalog(sys);
    ASSERT_TRUE(rep.hasRule("ANA001"));
    EXPECT_GT(rep.count(lint::Severity::Error), 0u);
    const auto findings = rep.byRule("ANA001");
    bool sawFloat1 = false;
    bool sawFloat2 = false;
    for (const auto& d : findings) {
        sawFloat1 = sawFloat1 || d.path == "float1";
        sawFloat2 = sawFloat2 || d.path == "float2";
    }
    EXPECT_TRUE(sawFloat1 && sawFloat2);
}

TEST(AnalogLint, DanglingNodeIsAna001)
{
    analog::AnalogSystem sys;
    const analog::NodeId in = sys.node("in");
    sys.add<analog::VoltageSource>(sys, "V1", in, analog::kGround, 1.0);
    sys.node("dangling"); // created, never touched by any component
    EXPECT_TRUE(lint::lintAnalog(sys).hasRule("ANA001"));
}

TEST(AnalogLint, VoltageSourceLoopIsAna002)
{
    analog::AnalogSystem sys;
    const analog::NodeId n = sys.node("n");
    sys.add<analog::VoltageSource>(sys, "V1", n, analog::kGround, 1.0);
    sys.add<analog::VoltageSource>(sys, "V2", n, analog::kGround, 2.0);
    sys.add<analog::Resistor>(sys, "R1", n, analog::kGround, 1e3);

    const lint::Report rep = lint::lintAnalog(sys);
    ASSERT_TRUE(rep.hasRule("ANA002"));
    EXPECT_GT(rep.count(lint::Severity::Error), 0u);
}

TEST(AnalogLint, VsourceLoopRuntimeErrorPointsAtLint)
{
    // The V-loop the linter flags statically is genuinely singular at
    // runtime (the two branch currents are underdetermined); the solver's
    // DivergenceError must cross-reference the analog lint rules.
    analog::AnalogSystem sys;
    const analog::NodeId n = sys.node("n");
    sys.add<analog::VoltageSource>(sys, "V1", n, analog::kGround, 1.0);
    sys.add<analog::VoltageSource>(sys, "V2", n, analog::kGround, 2.0);
    sys.add<analog::Resistor>(sys, "R1", n, analog::kGround, 1e3);
    analog::TransientSolver solver(sys);
    try {
        solver.solveDc();
        FAIL() << "expected DivergenceError";
    } catch (const DivergenceError& e) {
        EXPECT_NE(std::string(e.what()).find("ANA001-ANA005"), std::string::npos);
    }
}

TEST(AnalogLint, CurrentSourceCutsetIsAna003)
{
    // A current source pushing into a capacitive island: no DC path can
    // carry the current, so the operating point integrates to infinity.
    analog::AnalogSystem sys;
    const analog::NodeId n = sys.node("n");
    sys.add<analog::CurrentSource>(sys, "I1", n, analog::kGround, 1e-3);
    sys.add<analog::Capacitor>(sys, "C1", n, analog::kGround, 1e-9);
    EXPECT_TRUE(lint::lintAnalog(sys).hasRule("ANA003"));
}

TEST(AnalogLint, GroundedRcIsClean)
{
    analog::AnalogSystem sys;
    const analog::NodeId in = sys.node("in");
    const analog::NodeId out = sys.node("out");
    sys.add<analog::VoltageSource>(sys, "V1", in, analog::kGround, 1.0);
    sys.add<analog::Resistor>(sys, "R1", in, out, 1e3);
    sys.add<analog::Capacitor>(sys, "C1", out, analog::kGround, 1e-9);
    const lint::Report rep = lint::lintAnalog(sys);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.size(), 0u);
}

// ---------------------------------------------------------------------------
// Campaign preflight rules

TEST(Preflight, UnknownTargetIsPre001)
{
    duts::DigitalDutTestbench tb;
    const fault::FaultSpec f = fault::BitFlipFault{"dut/no_such_reg", 0, kMicrosecond};
    const lint::Report rep = lint::preflightFault(tb, f);
    ASSERT_TRUE(rep.hasRule("PRE001"));
    EXPECT_GT(rep.count(lint::Severity::Error), 0u);
}

TEST(Preflight, BitOutsideWidthIsPre002)
{
    duts::DigitalDutTestbench tb;
    // dut/out_reg is 8 bits wide; bit 12 does not exist.
    const fault::FaultSpec f = fault::BitFlipFault{"dut/out_reg", 12, kMicrosecond};
    const lint::Report rep = lint::preflightFault(tb, f);
    EXPECT_TRUE(rep.hasRule("PRE002"));
}

TEST(Preflight, OutOfWindowTimeIsPre003)
{
    duts::DigitalDutTestbench tb;
    const fault::FaultSpec f =
        fault::BitFlipFault{"dut/out_reg", 0, tb.duration() + kMicrosecond};
    const lint::Report rep = lint::preflightFault(tb, f);
    ASSERT_TRUE(rep.hasRule("PRE003"));
    EXPECT_GT(rep.count(lint::Severity::Error), 0u);
}

TEST(Preflight, MissingPulseShapeIsPre004)
{
    pll::PllTestbench tb;
    fault::CurrentPulseFault f;
    f.saboteur = pll::names::kSabFilter;
    f.timeSeconds = 1e-6;
    f.shape = nullptr; // forgot the shape
    EXPECT_TRUE(lint::preflightFault(tb, fault::FaultSpec{f}).hasRule("PRE004"));
}

TEST(Preflight, DuplicateFaultIsPre005Warning)
{
    duts::DigitalDutTestbench tb;
    const fault::FaultSpec f = fault::BitFlipFault{"dut/out_reg", 2, kMicrosecond};
    const lint::Report rep = lint::preflightCampaign(tb, {f, f});
    ASSERT_TRUE(rep.hasRule("PRE005"));
    EXPECT_EQ(rep.byRule("PRE005").front().severity, lint::Severity::Warning);
    EXPECT_EQ(rep.count(lint::Severity::Error), 0u);
}

TEST(Preflight, BatchIneligibleFaultInMixedListIsPre008Warning)
{
    duts::DigitalDutTestbench tb;
    const std::vector<fault::FaultSpec> faults{
        fault::StuckAtFault{"sab/enable", digital::Logic::One, kMicrosecond, 0},
        fault::StuckAtFault{"sab/data", digital::Logic::X, kMicrosecond, 0},
    };
    const lint::Report rep = lint::preflightCampaign(tb, faults);
    ASSERT_TRUE(rep.hasRule("PRE008"));
    const auto& diags = rep.byRule("PRE008");
    ASSERT_EQ(diags.size(), 1u); // only the stuck-at-X, not the two-valued stuck-at
    EXPECT_EQ(diags.front().severity, lint::Severity::Warning);
    // The diagnostic names the offending fault (its component) and the reason.
    EXPECT_NE(diags.front().path.find("sab/data"), std::string::npos);
    EXPECT_NE(diags.front().message.find("not batch-eligible"), std::string::npos);
    EXPECT_EQ(rep.count(lint::Severity::Error), 0u);
}

TEST(Preflight, UniformlyIneligibleListSkipsPre008)
{
    // A list with no batch-eligible fault at all gains nothing from one
    // warning per entry: the whole campaign simply runs event-driven.
    duts::DigitalDutTestbench tb;
    const std::vector<fault::FaultSpec> faults{
        fault::StuckAtFault{"sab/enable", digital::Logic::X, kMicrosecond, 0},
        fault::StuckAtFault{"sab/data", digital::Logic::X, 2 * kMicrosecond, 0},
    };
    EXPECT_FALSE(lint::preflightCampaign(tb, faults).hasRule("PRE008"));
}

TEST(Preflight, NonCompilableDesignSkipsPre008)
{
    // The PLL carries an analog domain, so the word compiler rejects the
    // whole design — a mixed fault list must not be scored.
    pll::PllTestbench tb;
    const std::string reg = tb.sim().digital().instrumentation().names().front();
    auto pulse = std::make_shared<fault::TrapezoidPulse>(2e-3, 300e-12, 300e-12, 1e-9);
    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{reg, 0, 10 * kMicrosecond},
        fault::CurrentPulseFault{pll::names::kSabFilter, 8e-6, pulse},
    };
    EXPECT_FALSE(lint::preflightCampaign(tb, faults).hasRule("PRE008"));
}

TEST(Preflight, ValidFaultListPasses)
{
    duts::DigitalDutTestbench tb;
    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{"dut/out_reg", 4, kMicrosecond},
        fault::FsmTransitionFault{"dut/fsm", 2, 2 * kMicrosecond},
        fault::DigitalPulseFault{"sab/enable", kMicrosecond, 5 * kNanosecond},
    };
    const lint::Report rep = lint::preflightCampaign(tb, faults);
    EXPECT_EQ(rep.count(lint::Severity::Error), 0u);
}

// ---------------------------------------------------------------------------
// Campaign-runner preflight gate

campaign::CampaignRunner countingRunner(std::shared_ptr<int> builds)
{
    return campaign::CampaignRunner([builds] {
        ++*builds;
        return std::make_unique<duts::DigitalDutTestbench>();
    });
}

TEST(CampaignPreflight, UnknownTargetFailsInOneBuildNotPerRun)
{
    auto builds = std::make_shared<int>(0);
    campaign::CampaignRunner runner = countingRunner(builds);
    std::vector<fault::FaultSpec> faults;
    for (int i = 0; i < 20; ++i) {
        faults.push_back(fault::BitFlipFault{"typo/reg", 0, kMicrosecond + i});
    }
    try {
        runner.run(faults);
        FAIL() << "expected PreflightError";
    } catch (const lint::PreflightError& e) {
        EXPECT_TRUE(e.report().hasRule("PRE001"));
        EXPECT_NE(std::string(e.what()).find("PRE001"), std::string::npos);
    }
    // One testbench build (lint + preflight), zero per-fault simulations.
    EXPECT_EQ(*builds, 1);
}

TEST(CampaignPreflight, DisabledPreflightContainsAsSimError)
{
    campaign::CampaignRunner runner(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    runner.setPreflight(false);
    const fault::FaultSpec bad = fault::BitFlipFault{"typo/reg", 0, kMicrosecond};
    const campaign::CampaignReport rep = runner.run({bad});
    ASSERT_EQ(rep.runs.size(), 1u);
    EXPECT_EQ(rep.runs[0].outcome, campaign::Outcome::SimError);
}

TEST(CampaignPreflight, PreflightReportListsAllBadFaults)
{
    campaign::CampaignRunner runner(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{"typo/one", 0, kMicrosecond},
        fault::BitFlipFault{"dut/out_reg", 0, kMicrosecond}, // fine
        fault::StuckAtFault{"typo/two", digital::Logic::One, kMicrosecond, 0},
    };
    const lint::Report rep = runner.preflightReport(faults);
    EXPECT_EQ(rep.byRule("PRE001").size(), 2u);
}

TEST(CampaignPreflight, JournalEntriesForPreflightFailingFaultsAreNotRestored)
{
    const std::string path = ::testing::TempDir() + "lint_journal_test.jsonl";
    std::remove(path.c_str());
    const fault::FaultSpec bad = fault::BitFlipFault{"typo/reg", 0, kMicrosecond};
    const fault::FaultSpec good = fault::BitFlipFault{"dut/out_reg", 4, kMicrosecond};

    // First session: preflight off, the bad fault is journaled as SimError.
    {
        campaign::CampaignRunner runner(
            [] { return std::make_unique<duts::DigitalDutTestbench>(); });
        runner.setPreflight(false);
        runner.setJournalPath(path);
        const campaign::CampaignReport rep = runner.run({bad, good});
        ASSERT_EQ(rep.runs.size(), 2u);
        EXPECT_EQ(rep.runs[0].outcome, campaign::Outcome::SimError);
    }

    // Resume with preflight on: the list still contains the bad fault, so
    // the campaign fails up front instead of restoring its SimError row.
    {
        campaign::CampaignRunner runner(
            [] { return std::make_unique<duts::DigitalDutTestbench>(); });
        runner.setJournalPath(path);
        EXPECT_THROW(runner.run({bad, good}), lint::PreflightError);
    }

    // Resume with a corrected list (journal entries are index-keyed, so the
    // replacement keeps the good fault at its original position): the stale
    // SimError row at index 0 no longer matches and is re-simulated, while
    // the good fault's entry is restored.
    {
        campaign::CampaignRunner runner(
            [] { return std::make_unique<duts::DigitalDutTestbench>(); });
        runner.setJournalPath(path);
        const fault::FaultSpec fixed = fault::BitFlipFault{"dut/cnt", 1, kMicrosecond};
        const campaign::CampaignReport rep = runner.run({fixed, good});
        ASSERT_EQ(rep.runs.size(), 2u);
        EXPECT_FALSE(rep.runs[0].diagnostics.fromJournal);
        EXPECT_NE(rep.runs[0].outcome, campaign::Outcome::SimError);
        EXPECT_TRUE(rep.runs[1].diagnostics.fromJournal);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Known-good designs lint clean

TEST(LintClean, DigitalDut)
{
    duts::DigitalDutTestbench tb;
    const lint::Report rep = lint::lintTestbench(tb);
    EXPECT_TRUE(rep.clean()) << rep.table();
}

TEST(LintClean, TinyCpu)
{
    duts::TinyCpuTestbench tb;
    const lint::Report rep = lint::lintTestbench(tb);
    EXPECT_TRUE(rep.clean()) << rep.table();
}

TEST(LintClean, Pll)
{
    pll::PllTestbench tb;
    const lint::Report rep = lint::lintTestbench(tb);
    EXPECT_TRUE(rep.clean()) << rep.table();
    // The loop filter's capacitive islands are reported as informational
    // gmin reliance, not errors — the PLL integrates charge by design.
    EXPECT_TRUE(rep.hasRule("ANA005"));
}

TEST(LintClean, SarAdc)
{
    adc::SarAdcTestbench tb;
    const lint::Report rep = lint::lintTestbench(tb);
    EXPECT_TRUE(rep.clean()) << rep.table();
}

TEST(LintClean, FlashAdc)
{
    adc::FlashAdcTestbench tb;
    const lint::Report rep = lint::lintTestbench(tb);
    EXPECT_TRUE(rep.clean()) << rep.table();
}

// ---------------------------------------------------------------------------
// Report rendering

TEST(LintReport, JsonAndTableRender)
{
    lint::Report rep;
    rep.add("DIG001", lint::Severity::Error, "a/b", "loop \"x\"", "break it");
    rep.add("PRE005", lint::Severity::Warning, "fault[1]", "dup", "");
    EXPECT_EQ(rep.summary(), "1 error, 1 warning, 0 infos");
    const std::string json = rep.json();
    EXPECT_NE(json.find("\"rule\": \"DIG001\""), std::string::npos);
    EXPECT_NE(json.find("loop \\\"x\\\""), std::string::npos);
    const std::string table = rep.table();
    EXPECT_NE(table.find("DIG001"), std::string::npos);
    EXPECT_NE(table.find("fault[1]"), std::string::npos);
}

} // namespace
} // namespace gfi
