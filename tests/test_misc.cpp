// Assorted contract tests: VCO unit behavior, mixed-simulator error paths,
// periodic pulse sources and formatting edge cases.

#include "ams/mixed_sim.hpp"
#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"
#include "pll/vco.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gfi {
namespace {

TEST(BehavioralVcoTest, FreeRunsAtCenterFrequency)
{
    analog::AnalogSystem sys;
    const auto ctrl = sys.node("ctrl");
    const auto out = sys.node("out");
    sys.add<analog::VoltageSource>(sys, "VC", ctrl, analog::kGround, 0.0);
    auto& vco = sys.add<pll::BehavioralVco>(sys, "vco", ctrl, out, 10e6, 1e6, 2.5, 2.5);
    sys.add<analog::Resistor>(sys, "RL", out, analog::kGround, 1e4);

    analog::TransientSolver solver(sys);
    int crossings = 0;
    solver.addMonitor(out, 2.5, analog::CrossingMonitor::Edge::Rising,
                      [&](double, bool) { ++crossings; });
    solver.solveDc();
    while (solver.time() < 10e-6) {
        solver.advanceTo(10e-6);
    }
    EXPECT_NEAR(crossings, 100, 2); // 10 MHz for 10 us
    EXPECT_GT(vco.phase(), 0.0);
}

TEST(BehavioralVcoTest, FrequencyTracksControlAndClamps)
{
    analog::AnalogSystem sys;
    const auto ctrl = sys.node("ctrl");
    const auto out = sys.node("out");
    auto& vco = sys.add<pll::BehavioralVco>(sys, "vco", ctrl, out, 10e6, 1e6, 2.5, 2.5);
    EXPECT_DOUBLE_EQ(vco.frequency(0.0), 10e6);
    EXPECT_DOUBLE_EQ(vco.frequency(5.0), 15e6);
    EXPECT_DOUBLE_EQ(vco.frequency(-20.0), 0.05 * 10e6);  // clamped low
    EXPECT_DOUBLE_EQ(vco.frequency(1000.0), 5.0 * 10e6);  // clamped high
}

TEST(BehavioralVcoTest, OutputSpansOffsetPlusMinusAmplitude)
{
    analog::AnalogSystem sys;
    const auto ctrl = sys.node("ctrl");
    const auto out = sys.node("out");
    sys.add<analog::VoltageSource>(sys, "VC", ctrl, analog::kGround, 0.0);
    sys.add<pll::BehavioralVco>(sys, "vco", ctrl, out, 10e6, 1e6, 2.5, 2.5);
    sys.add<analog::Resistor>(sys, "RL", out, analog::kGround, 1e4);
    // The subject is the output span, not the production step: sample the
    // 10 MHz sinusoid at 24 points per cycle, so a sampled peak falls at most
    // 2.5 V * (1 - cos(pi / 24)) = 21 mV short.
    analog::SolverOptions opts;
    opts.dtMax = 1.0 / (24.0 * 10e6);
    analog::TransientSolver solver(sys, opts);
    solver.solveDc();
    double lo = 1e9;
    double hi = -1e9;
    solver.onAccept([&](double) {
        lo = std::min(lo, sys.voltage(out));
        hi = std::max(hi, sys.voltage(out));
    });
    solver.advanceTo(1e-6);
    EXPECT_NEAR(lo, 0.0, 0.05);
    EXPECT_NEAR(hi, 5.0, 0.05);
}

TEST(MixedSimulatorTest, SolverAccessBeforeElaborateThrows)
{
    ams::MixedSimulator sim;
    EXPECT_THROW((void)sim.solver(), std::logic_error);
    sim.analog().node("n");
    sim.analog().add<analog::Resistor>(sim.analog(), "R", sim.analog().node("n"),
                                       analog::kGround, 1e3);
    sim.elaborate();
    EXPECT_NO_THROW((void)sim.solver());
    // Idempotent.
    sim.elaborate();
}

TEST(PulseVoltageTest, PeriodicRepetition)
{
    analog::AnalogSystem sys;
    const auto n = sys.node("n");
    sys.add<analog::PulseVoltage>(sys, "VP", n, analog::kGround, 0.0, 1.0,
                                  /*delay=*/1e-6, /*rise=*/10e-9, /*width=*/100e-9,
                                  /*fall=*/10e-9, /*period=*/1e-6);
    sys.add<analog::Resistor>(sys, "RL", n, analog::kGround, 1e3);
    analog::TransientSolver solver(sys);
    solver.solveDc();
    // Pulse k starts at 1 us + k * 1 us; sample each plateau and each gap.
    for (int k = 0; k < 3; ++k) {
        solver.advanceTo(1e-6 + k * 1e-6 + 60e-9);
        EXPECT_NEAR(sys.voltage(n), 1.0, 1e-3) << "pulse " << k;
        solver.advanceTo(1e-6 + k * 1e-6 + 0.5e-6);
        EXPECT_NEAR(sys.voltage(n), 0.0, 1e-3) << "gap " << k;
    }
}

TEST(TimeFormat, NegativeTimes)
{
    EXPECT_EQ(formatTime(-kNanosecond), "-1 ns");
    EXPECT_EQ(formatTime(-1500 * kPicosecond), "-1.500 ns");
}

TEST(AnalogSystemTest, GroundAliases)
{
    analog::AnalogSystem sys;
    EXPECT_EQ(sys.node("0"), analog::kGround);
    EXPECT_EQ(sys.node("gnd"), analog::kGround);
    EXPECT_EQ(sys.node("GND"), analog::kGround);
    const auto a = sys.node("a");
    EXPECT_EQ(sys.node("a"), a); // idempotent lookup
    EXPECT_EQ(sys.nodeName(a), "a");
    EXPECT_EQ(sys.findComponent("nope"), nullptr);
}

} // namespace
} // namespace gfi
