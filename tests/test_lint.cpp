// Static-analysis tests: the digital netlist linter, the analog topology
// checker and the campaign preflight, each against deliberately broken
// designs — plus the "known good designs lint clean" regression and the
// campaign-runner preflight gate.

#include "adc/flash.hpp"
#include "adc/sar.hpp"
#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"
#include "campaign_harness.hpp"

#include "core/campaign.hpp"
#include "core/saboteur.hpp"
#include "digital/gates.hpp"
#include "digital/sequential.hpp"
#include "duts/chain_dut.hpp"
#include "duts/digital_dut.hpp"
#include "duts/tiny_cpu.hpp"
#include "lint/lint.hpp"
#include "pll/pll.hpp"
#include "sim/errors.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

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

TEST(DigitalLint, OverlappingLoopsTextIsStable)
{
    // Two combinational loops sharing nand2 (a -> b -> c -> a and
    // b -> d -> e -> b), fan-out from a and b, a process triggered twice by
    // the same signal (and3 on b, b), a disjoint inverter loop, a net with
    // two gate drivers and a net with a gate plus an external driver. The
    // DIG001/DIG002 rows below are pinned: the loop search may change how
    // it finds cycles, never what it reports or in which order (DIG002 rows
    // follow signal names).
    digital::Circuit c;
    using digital::Logic;
    auto& x = c.logicSignal("x", Logic::Zero);
    c.noteExternalDriver(x);
    auto& a = c.logicSignal("a", Logic::U);
    auto& b = c.logicSignal("b", Logic::U);
    auto& cc = c.logicSignal("c", Logic::U);
    auto& d = c.logicSignal("d", Logic::U);
    auto& e = c.logicSignal("e", Logic::U);
    auto& y = c.logicSignal("y", Logic::U);
    auto& z = c.logicSignal("z", Logic::U);
    c.noteExternalDriver(z);
    auto& p = c.logicSignal("p", Logic::Zero);
    auto& q = c.logicSignal("q", Logic::U);
    c.add<digital::AndGate>(c, "and1", x, cc, a);
    c.add<digital::Gate>(c, "nand2", digital::GateKind::Nand,
                         std::vector<digital::LogicSignal*>{&a, &e}, b);
    c.add<digital::AndGate>(c, "and3", b, b, cc);
    c.add<digital::OrGate>(c, "or4", b, x, d);
    c.add<digital::BufGate>(c, "buf5", d, e);
    c.add<digital::BufGate>(c, "buf6", a, y);
    c.add<digital::AndGate>(c, "and7", a, d, z);
    c.add<digital::BufGate>(c, "buf8", x, y);
    c.add<digital::NotGate>(c, "inv9", p, q);
    c.add<digital::NotGate>(c, "inv10", q, p);

    const lint::Report rep = lint::lintDigital(c);
    const auto rows = [&rep](const std::string& rule) {
        std::vector<std::string> out;
        for (const lint::Diagnostic& diag : rep.byRule(rule)) {
            out.push_back(std::string(lint::toString(diag.severity)) + " | " + diag.path +
                          " | " + diag.message);
        }
        return out;
    };
    const std::string loop = " — the delta-cycle engine will oscillate until "
                             "SchedulerLimitError";
    EXPECT_EQ(rows("DIG001"),
              (std::vector<std::string>{
                  "error | and1/eval, and3/eval, buf5/eval, nand2/eval, or4/eval | "
                  "combinational loop through signal(s) e, d, c, b, a" + loop,
                  "error | inv10/eval, inv9/eval | combinational loop through signal(s) p, q" +
                      loop}));
    EXPECT_EQ(rows("DIG002"),
              (std::vector<std::string>{
                  "error | y | unresolved signal has 2 drivers: buf6/eval, buf8/eval",
                  "error | z | unresolved signal has 2 drivers: <external driver>, and7/eval"}));
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

// The gate runs only the rules that can raise an error and builds the full
// report only when one fires. Each case below adds one defect to the chain
// DUT (or to its fault list); every list also holds a duplicate (PRE005), a
// dead-cone fault (PRE007) and a stuck-at-X (PRE008 on a word-compilable
// design), so the thrown report must still carry the warning-only rules.
enum class Defect { None, UnknownTarget, BitOutOfRange, OutOfWindow, NoPulseShape, CombLoop,
                    TwoDrivers, FloatingAnalog, NotSnapshottable };

/// Stateful and not Snapshottable: PRE006 while forking.
class StaleCounter : public digital::Component {
public:
    StaleCounter(digital::Circuit& c, std::string name, digital::LogicSignal& in)
        : digital::Component(std::move(name))
    {
        c.process(this->name() + "/count", [this] { ++count_; }, {&in});
    }

private:
    std::uint64_t count_ = 0;
};

fault::TestbenchFactory chainWith(Defect defect)
{
    return [defect] {
        auto tb = std::make_unique<duts::ChainDutTestbench>();
        auto& dig = tb->sim().digital();
        auto& sys = tb->sim().analog();
        using digital::Logic;
        switch (defect) {
        case Defect::NoPulseShape: {
            const analog::NodeId n = sys.node("an/n");
            sys.add<analog::Resistor>(sys, "an/r", n, analog::kGround, 1e3);
            tb->addCurrentSaboteur(sys.add<fault::CurrentSaboteur>(sys, "sab/an", n));
            break;
        }
        case Defect::CombLoop: {
            auto& a = dig.logicSignal("loop/a", Logic::Zero);
            auto& b = dig.logicSignal("loop/b", Logic::U);
            dig.add<digital::NotGate>(dig, "loop/inv1", a, b);
            dig.add<digital::NotGate>(dig, "loop/inv2", b, a);
            break;
        }
        case Defect::TwoDrivers: {
            auto& a = dig.logicSignal("multi/a", Logic::Zero);
            dig.noteExternalDriver(a);
            auto& y = dig.logicSignal("multi/y", Logic::U);
            dig.add<digital::BufGate>(dig, "multi/buf1", a, y);
            dig.add<digital::BufGate>(dig, "multi/buf2", a, y);
            break;
        }
        case Defect::FloatingAnalog: {
            const analog::NodeId x = sys.node("island/x");
            const analog::NodeId y = sys.node("island/y");
            sys.add<analog::Resistor>(sys, "island/r", x, y, 1e3);
            sys.add<analog::Capacitor>(sys, "island/c", x, y, 1e-9);
            break;
        }
        case Defect::NotSnapshottable: {
            auto& in = dig.logicSignal("stale/in", Logic::Zero);
            dig.noteExternalDriver(in);
            dig.add<StaleCounter>(dig, "stale/counter", in);
            break;
        }
        default:
            break;
        }
        return tb;
    };
}

std::vector<fault::FaultSpec> listWith(Defect defect)
{
    const fault::FaultSpec pulse = fault::DigitalPulseFault{"sab/c2", kMicrosecond,
                                                            2 * kNanosecond};
    std::vector<fault::FaultSpec> faults{
        pulse,
        fault::DigitalPulseFault{duts::ChainDutTestbench::deadSaboteur(), kMicrosecond,
                                 2 * kNanosecond},
        fault::StuckAtFault{"sab/c3", digital::Logic::X, kMicrosecond, 0},
        pulse,
    };
    switch (defect) {
    case Defect::UnknownTarget:
        faults.push_back(fault::BitFlipFault{"chain/no_such_ff", 0, kMicrosecond});
        break;
    case Defect::BitOutOfRange:
        faults.push_back(fault::BitFlipFault{"chain/ff", 5, kMicrosecond});
        break;
    case Defect::OutOfWindow:
        faults.push_back(fault::DigitalPulseFault{"sab/c4", 3 * kMicrosecond, kNanosecond});
        break;
    case Defect::NoPulseShape:
        faults.push_back(fault::CurrentPulseFault{"sab/an", 1e-6, nullptr});
        break;
    default:
        break;
    }
    return faults;
}

TEST(CampaignPreflight, GateThrowsTheFullReport)
{
    // PRE008 is scored only on a word-compilable design: the unchanged chain
    // DUT is one; an analog part or a loop/multi-driver/opaque component
    // outside the word library is not.
    struct Case {
        Defect defect;
        std::string rule;
        bool batchWarning;
    };
    const std::vector<Case> cases{
        {Defect::UnknownTarget, "PRE001", true},   {Defect::BitOutOfRange, "PRE002", true},
        {Defect::OutOfWindow, "PRE003", true},     {Defect::NoPulseShape, "PRE004", false},
        {Defect::CombLoop, "DIG001", false},       {Defect::TwoDrivers, "DIG002", false},
        {Defect::FloatingAnalog, "ANA001", false}, {Defect::NotSnapshottable, "PRE006", false},
    };
    for (const auto& [defect, rule, batchWarning] : cases) {
        SCOPED_TRACE(rule);
        const bool forking = defect == Defect::NotSnapshottable;
        const fault::TestbenchFactory factory = chainWith(defect);
        const std::vector<fault::FaultSpec> faults = listWith(defect);

        // What the gate used to throw: the full campaign lint.
        const std::unique_ptr<fault::Testbench> tb = factory();
        lint::Report full = lint::lintCampaign(*tb, faults);
        if (forking) {
            full.merge(lint::preflightSnapshot(*tb));
        }
        std::set<std::string> errorRules;
        for (const lint::Diagnostic& d : full.diagnostics()) {
            if (d.severity == lint::Severity::Error) {
                errorRules.insert(d.rule);
            }
        }
        EXPECT_EQ(errorRules, std::set<std::string>{rule}) << full.table();
        EXPECT_TRUE(full.hasRule("PRE005")) << full.table();
        EXPECT_TRUE(full.hasRule("PRE007")) << full.table();
        EXPECT_EQ(full.hasRule("PRE008"), batchWarning) << full.table();
        const lint::PreflightError expected(full);

        campaign::CampaignRunner runner(factory);
        runner.setCheckpointCadence(forking ? kMicrosecond / 2 : -1);
        try {
            (void)runner.run(faults);
            ADD_FAILURE() << "expected PreflightError";
        } catch (const lint::PreflightError& e) {
            EXPECT_EQ(std::string(e.what()), std::string(expected.what()));
            EXPECT_EQ(e.report().json(), expected.report().json());
            for (const char* warning : {"PRE005", "PRE007", "PRE008"}) {
                EXPECT_EQ(e.report().hasRule(warning), full.hasRule(warning)) << warning;
            }
        }
    }
}

TEST(CampaignPreflight, WarningOnlyListsStillRun)
{
    const std::vector<fault::FaultSpec> faults = listWith(Defect::None);
    {
        duts::ChainDutTestbench tb;
        const lint::Report rep = lint::lintCampaign(tb, faults);
        EXPECT_EQ(rep.count(lint::Severity::Error), 0u) << rep.table();
        for (const char* warning : {"PRE005", "PRE007", "PRE008"}) {
            EXPECT_TRUE(rep.hasRule(warning)) << warning << "\n" << rep.table();
        }
    }
    const auto run = [&faults](bool preflight) {
        ::testing::internal::CaptureStderr();
        test::CampaignOutput out = test::runCampaign(
            chainWith(Defect::None), faults, preflight ? "gate_on" : "gate_off",
            [preflight](campaign::CampaignRunner& r) { r.setPreflight(preflight); });
        const std::string err = ::testing::internal::GetCapturedStderr();
        return std::make_pair(std::move(out), err);
    };
    const auto [on, onErr] = run(true);
    const auto [off, offErr] = run(false);
    EXPECT_EQ(on.journal, off.journal);
    EXPECT_EQ(on.summary, off.summary);
    EXPECT_EQ(on.detail, off.detail);
    EXPECT_EQ(on.json, off.json);
    EXPECT_EQ(on.csv, off.csv);
    EXPECT_EQ(onErr, offErr);
    EXPECT_EQ(on.report.runs.size(), faults.size());
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
