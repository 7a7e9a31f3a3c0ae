// The behavioral VCO's phase rule (pll/vco.hpp): over a step the phase
// advances at the frequency of V_ctrl extrapolated to the step's midpoint
// along its last slope, which is exact for a linear V_ctrl ramp; maxStep's
// hint is the step that advances the phase by exactly a quarter cycle under
// that rule; and the slope is part of the VCO's snapshot state.

#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"
#include "pll/vco.hpp"
#include "snapshot/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gfi {
namespace {

constexpr double kF0 = 10e6;   // Hz
constexpr double kKvco = 1e6;  // Hz/V
constexpr double kQuarter = 0.5 * M_PI;

/// A VCO whose control node is driven by V(t) = v0 + slope * t.
struct RampBench {
    analog::AnalogSystem sys;
    pll::BehavioralVco* vco = nullptr;

    RampBench(double v0, double slope)
    {
        const auto ctrl = sys.node("ctrl");
        const auto out = sys.node("out");
        auto& vc = sys.add<analog::VoltageSource>(sys, "VC", ctrl, analog::kGround, v0);
        analog::TimeFunction ramp;
        ramp.value = [v0, slope](double t) { return v0 + slope * t; };
        vc.setFunction(std::move(ramp));
        vco = &sys.add<pll::BehavioralVco>(sys, "vco", ctrl, out, kF0, kKvco, 2.5, 2.5);
        sys.add<analog::Resistor>(sys, "RL", out, analog::kGround, 1e4);
    }
};

std::size_t hintSteps(const analog::TransientSolver& solver)
{
    return solver.stats().stepsLimitedBy[static_cast<std::size_t>(obs::StepLimit::Hint)];
}

TEST(BehavioralVcoPhase, LinearRampMatchesTheAnalyticIntegral)
{
    // V_ctrl 0.5 -> 1.5 V over 10 us (10.5 -> 11.5 MHz). From the second
    // step on the slope is V_ctrl's own (the first extrapolates with the
    // zero slope of the DC point), so the phase from there on is the
    // integral of 2 pi (f0 + k V(t)) up to rounding.
    const double v0 = 0.5;
    const double slope = 1e5; // V/s
    RampBench b(v0, slope);
    analog::TransientSolver solver(b.sys);
    solver.solveDc();
    double t1 = -1.0;
    double phase1 = 0.0;
    double frozenMiss = 0.0; // what a V_ctrl frozen at each step start misses
    double tPrev = 0.0;
    solver.onAccept([&](double t) {
        const double dt = t - tPrev;
        tPrev = t;
        if (t1 < 0.0) {
            t1 = t;
            phase1 = b.vco->phase();
            return;
        }
        frozenMiss += M_PI * kKvco * slope * dt * dt;
    });
    const double tEnd = 10e-6;
    solver.advanceTo(tEnd);

    auto exact = [&](double t) {
        return 2.0 * M_PI * ((kF0 + kKvco * v0) * t + 0.5 * kKvco * slope * t * t);
    };
    ASSERT_GT(t1, 0.0);
    EXPECT_GT(solver.stats().acceptedSteps, 400u); // ~4 steps per 11 MHz cycle
    EXPECT_NEAR(b.vco->phase() - phase1, exact(tEnd) - exact(t1), 1e-9);
    EXPECT_GT(frozenMiss, 1e-2); // the test tells the two rules apart
}

TEST(BehavioralVcoPhase, HintStepAdvancesAQuarterCycleOnARamp)
{
    // V_ctrl falls at -2e5 V/s: every step the hint limits advances the
    // phase by exactly pi/2 although the frequency changes within it.
    RampBench b(1.0, -2e5);
    analog::TransientSolver solver(b.sys);
    solver.solveDc();
    double phasePrev = b.vco->phase();
    std::size_t hintPrev = hintSteps(solver);
    int checked = 0;
    solver.onAccept([&](double) {
        const double advance = b.vco->phase() - phasePrev;
        phasePrev = b.vco->phase();
        if (hintSteps(solver) != hintPrev) {
            EXPECT_NEAR(advance, kQuarter, 1e-12);
            ++checked;
        }
        hintPrev = hintSteps(solver);
    });
    solver.advanceTo(5e-6);
    EXPECT_GT(checked, 150);
}

TEST(BehavioralVcoPhase, HintFallsBackAtTheFrequencyClamp)
{
    // V_ctrl ramps through the 5 f0 clamp (f0 + k V = 50 MHz at 40 V). Past
    // it the frequency is constant, the closed-form root's midpoint lies
    // above the clamp, and the fallback's fixed point is the exact quarter
    // cycle of the clamped frequency. Only a step whose midpoint straddles
    // the clamp onset may miss pi/2.
    RampBench b(39.0, 1e6); // crosses 40 V at 1 us
    analog::TransientSolver solver(b.sys);
    solver.solveDc();
    double phasePrev = b.vco->phase();
    std::size_t hintPrev = hintSteps(solver);
    int exact = 0;
    int missed = 0;
    solver.onAccept([&](double) {
        const double advance = b.vco->phase() - phasePrev;
        phasePrev = b.vco->phase();
        if (hintSteps(solver) != hintPrev) {
            if (std::fabs(advance - kQuarter) <= 1e-12) {
                ++exact;
            } else {
                ++missed;
                EXPECT_NEAR(advance, kQuarter, 1e-3);
            }
        }
        hintPrev = hintSteps(solver);
    });
    solver.advanceTo(2e-6);
    EXPECT_GT(b.vco->frequency(39.0 + 1e6 * 2e-6), 5.0 * kF0 - 1.0); // clamped
    EXPECT_DOUBLE_EQ(b.vco->maxStep(solver.time()), 1.0 / (4.0 * 5.0 * kF0));
    EXPECT_GT(exact, 100);
    EXPECT_LE(missed, 2);
}

TEST(BehavioralVcoPhase, SlopeSurvivesASnapshotRoundTrip)
{
    // Capture mid-ramp and restore into a VCO that sat at its DC point: the
    // restored VCO proposes the captured one's step, which differs from the
    // step a zero slope gives at the same V_ctrl (1 / (4 f(V_ctrl))).
    RampBench b(0.5, 1e5);
    analog::TransientSolver solver(b.sys);
    solver.solveDc();
    solver.advanceTo(2e-6);
    snapshot::Writer w;
    b.vco->captureState(w);

    RampBench fresh(0.5, 0.0);
    analog::TransientSolver freshSolver(fresh.sys);
    freshSolver.solveDc();
    snapshot::Reader r(w.bytes());
    fresh.vco->restoreState(r);
    const double hint = b.vco->maxStep(solver.time());
    EXPECT_EQ(fresh.vco->phase(), b.vco->phase());
    EXPECT_EQ(fresh.vco->maxStep(0.0), hint);

    const double flat = 1.0 / (4.0 * b.vco->frequency(0.5 + 1e5 * 2e-6));
    EXPECT_GT(std::fabs(hint - flat), 1e-5 * flat); // ~1.2e-4: k s dt / 2 f
}

} // namespace
} // namespace gfi
