// Transient-solver validation against closed-form circuit solutions: DC
// dividers, RC step response, RL current rise, RLC resonance, nonlinear
// components and crossing-monitor accuracy; step control on integrated state
// only (SolverLte.*).

#include "analog/controlled.hpp"
#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"
#include "pll/pll.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace gfi::analog {
namespace {

TEST(AnalogDc, VoltageDivider)
{
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId mid = sys.node("mid");
    sys.add<VoltageSource>(sys, "V1", in, kGround, 10.0);
    sys.add<Resistor>(sys, "R1", in, mid, 1e3);
    sys.add<Resistor>(sys, "R2", mid, kGround, 3e3);
    TransientSolver solver(sys);
    solver.solveDc();
    // gmin (1e-12 S per node) perturbs the ideal value at the 1e-8 level.
    EXPECT_NEAR(sys.voltage(mid), 7.5, 1e-6);
    EXPECT_NEAR(sys.voltage(in), 10.0, 1e-6);
}

TEST(AnalogDc, CurrentSourceIntoResistor)
{
    AnalogSystem sys;
    const NodeId n = sys.node("n");
    sys.add<CurrentSource>(sys, "I1", n, kGround, 2e-3); // 2 mA into n
    sys.add<Resistor>(sys, "R1", n, kGround, 1e3);
    TransientSolver solver(sys);
    solver.solveDc();
    EXPECT_NEAR(sys.voltage(n), 2.0, 1e-6);
}

TEST(AnalogDc, VoltageSourceBranchCurrent)
{
    AnalogSystem sys;
    const NodeId n = sys.node("n");
    auto& v1 = sys.add<VoltageSource>(sys, "V1", n, kGround, 5.0);
    sys.add<Resistor>(sys, "R1", n, kGround, 5.0);
    TransientSolver solver(sys);
    solver.solveDc();
    const Solution sol(sys.state(), sys.nodeCount());
    // SPICE passive-sign convention: a source delivering power carries a
    // negative branch current (1 A flows out of the + terminal into R1).
    EXPECT_NEAR(v1.current(sol), -1.0, 1e-6);
}

TEST(AnalogTransient, RcChargingMatchesAnalytic)
{
    // 1 kOhm / 1 nF driven by a 5 V step at t=0 (source starts at 5 V, cap at 0).
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId out = sys.node("out");
    auto& vs = sys.add<VoltageSource>(sys, "V1", in, kGround, 0.0);
    sys.add<Resistor>(sys, "R1", in, out, 1e3);
    sys.add<Capacitor>(sys, "C1", out, kGround, 1e-9);

    // Step from 0 to 5 V at 100 ns via a pulse edge of 1 ps.
    TimeFunction fn;
    fn.value = [](double t) {
        if (t < 100e-9) {
            return 0.0;
        }
        if (t < 100e-9 + 1e-12) {
            return 5.0 * (t - 100e-9) / 1e-12;
        }
        return 5.0;
    };
    fn.breakpoints = {100e-9, 100e-9 + 1e-12};
    vs.setFunction(std::move(fn));

    TransientSolver solver(sys);
    solver.solveDc();
    const double tau = 1e3 * 1e-9;

    for (double dtAfter : {0.5 * tau, 1.0 * tau, 2.0 * tau, 5.0 * tau}) {
        const double target = 100e-9 + dtAfter;
        solver.advanceTo(target);
        const double expected = 5.0 * (1.0 - std::exp(-dtAfter / tau));
        EXPECT_NEAR(sys.voltage(out), expected, 0.01) << "t-100ns = " << dtAfter;
    }
}

TEST(AnalogTransient, RcDischargeFromDcOperatingPoint)
{
    // Cap charged to 5 V at DC through R, then source drops to 0 at 1 us.
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId out = sys.node("out");
    auto& vs = sys.add<VoltageSource>(sys, "V1", in, kGround, 5.0);
    sys.add<Resistor>(sys, "R1", in, out, 10e3);
    sys.add<Capacitor>(sys, "C1", out, kGround, 100e-12);

    TimeFunction fn;
    fn.value = [](double t) { return t < 1e-6 ? 5.0 : 0.0; };
    fn.breakpoints = {1e-6};
    vs.setFunction(std::move(fn));

    TransientSolver solver(sys);
    solver.solveDc();
    EXPECT_NEAR(sys.voltage(out), 5.0, 1e-6); // DC: no current, cap at 5 V

    const double tau = 10e3 * 100e-12;
    solver.advanceTo(1e-6 + 2.0 * tau);
    EXPECT_NEAR(sys.voltage(out), 5.0 * std::exp(-2.0), 0.02);
}

TEST(AnalogTransient, RlCurrentRise)
{
    // Series R-L driven by a DC source from a zero-current initial state:
    // i(t) = (V/R)(1 - exp(-tR/L)), measured via the node between R and L.
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId mid = sys.node("mid");
    sys.add<VoltageSource>(sys, "V1", in, kGround, 1.0);
    sys.add<Resistor>(sys, "R1", in, mid, 100.0);
    sys.add<Inductor>(sys, "L1", mid, kGround, 1e-6);

    TransientSolver solver(sys);
    // Skip the DC pass (it would start at steady state); integrate from zero.
    const double tau = 1e-6 / 100.0;
    solver.advanceTo(3.0 * tau);
    // v(mid) = V * exp(-t/tau) decays as the inductor current builds.
    EXPECT_NEAR(sys.voltage(mid), 1.0 * std::exp(-3.0), 0.01);
}

TEST(AnalogTransient, RlcResonantRingdownFrequency)
{
    // Underdamped series RLC: check the ringing period of the cap voltage.
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId n1 = sys.node("n1");
    const NodeId n2 = sys.node("n2");
    auto& vs = sys.add<VoltageSource>(sys, "V1", in, kGround, 0.0);
    sys.add<Resistor>(sys, "R1", in, n1, 10.0);
    sys.add<Inductor>(sys, "L1", n1, n2, 10e-6);
    sys.add<Capacitor>(sys, "C1", n2, kGround, 10e-9);

    TimeFunction fn;
    fn.value = [](double t) { return t < 1e-7 ? 0.0 : 1.0; };
    fn.breakpoints = {1e-7};
    vs.setFunction(std::move(fn));

    SolverOptions opt;
    opt.lteRelTol = 1e-4;
    TransientSolver solver(sys, opt);
    solver.solveDc();

    // Track maxima of v(n2) by sampling.
    std::vector<std::pair<double, double>> samples;
    solver.onAccept([&](double t) { samples.emplace_back(t, sys.voltage(n2)); });
    solver.advanceTo(6e-6);

    // Find the first two local maxima after the step.
    std::vector<double> peaks;
    for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
        if (samples[i].second > samples[i - 1].second &&
            samples[i].second >= samples[i + 1].second && samples[i].first > 1e-7) {
            peaks.push_back(samples[i].first);
            if (peaks.size() == 2) {
                break;
            }
        }
    }
    ASSERT_EQ(peaks.size(), 2u);
    const double measured = peaks[1] - peaks[0];
    const double w0 = 1.0 / std::sqrt(10e-6 * 10e-9);
    const double alpha = 10.0 / (2.0 * 10e-6);
    const double wd = std::sqrt(w0 * w0 - alpha * alpha);
    EXPECT_NEAR(measured, 2.0 * M_PI / wd, 0.05 * 2.0 * M_PI / wd);
}

TEST(AnalogTransient, CrossingMonitorLocatesRampCrossing)
{
    // A 0->5 V ramp over 1 us crosses 2.5 V at exactly 0.5 us.
    AnalogSystem sys;
    const NodeId n = sys.node("n");
    auto& vs = sys.add<VoltageSource>(sys, "V1", n, kGround, 0.0);
    sys.add<Resistor>(sys, "Rload", n, kGround, 1e6);
    TimeFunction fn;
    fn.value = [](double t) { return t < 1e-6 ? 5.0 * t / 1e-6 : 5.0; };
    fn.breakpoints = {1e-6};
    vs.setFunction(std::move(fn));

    TransientSolver solver(sys);
    double tCross = -1.0;
    bool wasRising = false;
    solver.addMonitor(n, 2.5, CrossingMonitor::Edge::Rising, [&](double t, bool rising) {
        tCross = t;
        wasRising = rising;
    });
    const double reached = solver.advanceTo(2e-6);
    EXPECT_LT(reached, 2e-6); // stopped early at the crossing
    EXPECT_TRUE(wasRising);
    EXPECT_NEAR(tCross, 0.5e-6, 1e-11);
    // Resuming continues past the crossing without retriggering.
    EXPECT_NEAR(solver.advanceTo(2e-6), 2e-6, 1e-15);
}

TEST(AnalogTransient, FallingCrossingDetected)
{
    AnalogSystem sys;
    const NodeId n = sys.node("n");
    auto& vs = sys.add<VoltageSource>(sys, "V1", n, kGround, 5.0);
    sys.add<Resistor>(sys, "Rload", n, kGround, 1e6);
    TimeFunction fn;
    fn.value = [](double t) { return t < 1e-6 ? 5.0 - 5.0 * t / 1e-6 : 0.0; };
    fn.breakpoints = {1e-6};
    vs.setFunction(std::move(fn));

    TransientSolver solver(sys);
    double tCross = -1.0;
    solver.addMonitor(n, 1.0, CrossingMonitor::Edge::Falling,
                      [&](double t, bool) { tCross = t; });
    solver.advanceTo(2e-6);
    EXPECT_NEAR(tCross, 0.8e-6, 1e-11);
}

TEST(AnalogNonlinear, DiodeForwardDrop)
{
    // 5 V through 1 kOhm into a diode: V_diode settles near 0.6-0.75 V and
    // satisfies i = Is(exp(v/vt)-1) = (5 - v)/R.
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId d = sys.node("d");
    sys.add<VoltageSource>(sys, "V1", in, kGround, 5.0);
    sys.add<Resistor>(sys, "R1", in, d, 1e3);
    sys.add<Diode>(sys, "D1", d, kGround);
    TransientSolver solver(sys);
    solver.solveDc();
    const double v = sys.voltage(d);
    EXPECT_GT(v, 0.5);
    EXPECT_LT(v, 0.9);
    const double iR = (5.0 - v) / 1e3;
    const double iD = 1e-14 * (std::exp(v / 0.02585) - 1.0);
    EXPECT_NEAR(iR, iD, 1e-6 + 0.01 * iR);
}

TEST(AnalogNonlinear, SaturatingVcvsClamps)
{
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId out = sys.node("out");
    sys.add<VoltageSource>(sys, "V1", in, kGround, 1.0);
    sys.add<SaturatingVcvs>(sys, "A1", out, kGround, in, kGround, 1e5, 2.5, 2.5);
    sys.add<Resistor>(sys, "Rload", out, kGround, 1e4);
    TransientSolver solver(sys);
    solver.solveDc();
    EXPECT_NEAR(sys.voltage(out), 5.0, 1e-3); // railed high at mid+swing
}

TEST(AnalogNonlinear, SaturatingVcvsLinearRegion)
{
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId out = sys.node("out");
    sys.add<VoltageSource>(sys, "V1", in, kGround, 1e-6);
    sys.add<SaturatingVcvs>(sys, "A1", out, kGround, in, kGround, 1e5, 2.5, 2.5);
    sys.add<Resistor>(sys, "Rload", out, kGround, 1e4);
    TransientSolver solver(sys);
    solver.solveDc();
    // gain * 1 uV = 0.1 V above the 2.5 V midpoint.
    EXPECT_NEAR(sys.voltage(out), 2.6, 2e-3);
}

TEST(AnalogControlled, VccsAndVcvs)
{
    AnalogSystem sys;
    const NodeId in = sys.node("in");
    const NodeId o1 = sys.node("o1");
    const NodeId o2 = sys.node("o2");
    sys.add<VoltageSource>(sys, "V1", in, kGround, 2.0);
    sys.add<Vccs>(sys, "G1", kGround, o1, in, kGround, 1e-3); // 2 mA into o1
    sys.add<Resistor>(sys, "R1", o1, kGround, 1e3);
    sys.add<Vcvs>(sys, "E1", o2, kGround, o1, kGround, 3.0);
    sys.add<Resistor>(sys, "R2", o2, kGround, 1e3);
    TransientSolver solver(sys);
    solver.solveDc();
    EXPECT_NEAR(sys.voltage(o1), 2.0, 1e-6);
    EXPECT_NEAR(sys.voltage(o2), 6.0, 1e-6);
}

TEST(AnalogTransient, SwitchConducts)
{
    AnalogSystem sys;
    const NodeId ctrl = sys.node("ctrl");
    const NodeId n = sys.node("n");
    const NodeId supply = sys.node("supply");
    sys.add<VoltageSource>(sys, "Vsup", supply, kGround, 5.0);
    auto& vctrl = sys.add<VoltageSource>(sys, "Vctrl", ctrl, kGround, 0.0);
    sys.add<Switch>(sys, "S1", supply, n, ctrl, kGround, 0.5, 1.0, 1e9);
    sys.add<Resistor>(sys, "R1", n, kGround, 1e3);
    TransientSolver solver(sys);
    solver.solveDc();
    EXPECT_LT(sys.voltage(n), 0.01); // switch open

    vctrl.setLevel(1.0);
    solver.markDiscontinuity();
    solver.advanceTo(1e-6);
    EXPECT_NEAR(sys.voltage(n), 5.0 * 1e3 / 1001.0, 0.01); // switch closed
}

TEST(AnalogTransient, PulseVoltageShape)
{
    AnalogSystem sys;
    const NodeId n = sys.node("n");
    sys.add<PulseVoltage>(sys, "Vp", n, kGround, 0.0, 3.0,
                          /*delay=*/1e-6, /*rise=*/1e-7, /*width=*/5e-7, /*fall=*/1e-7);
    sys.add<Resistor>(sys, "R1", n, kGround, 1e3);
    TransientSolver solver(sys);
    solver.solveDc();
    solver.advanceTo(0.5e-6);
    EXPECT_NEAR(sys.voltage(n), 0.0, 1e-6);
    solver.advanceTo(1.05e-6); // mid-rise
    EXPECT_NEAR(sys.voltage(n), 1.5, 0.02);
    solver.advanceTo(1.3e-6); // plateau
    EXPECT_NEAR(sys.voltage(n), 3.0, 1e-3);
    solver.advanceTo(2.0e-6); // after fall
    EXPECT_NEAR(sys.voltage(n), 0.0, 1e-3);
}

TEST(AnalogTransient, StatsAccumulate)
{
    AnalogSystem sys;
    const NodeId n = sys.node("n");
    sys.add<SineVoltage>(sys, "Vs", n, kGround, 0.0, 1.0, 1e6);
    sys.add<Resistor>(sys, "R1", n, kGround, 1e3);
    TransientSolver solver(sys);
    solver.solveDc();
    solver.advanceTo(5e-6);
    EXPECT_GT(solver.stats().acceptedSteps, 10u);
    EXPECT_GT(solver.stats().linearSolves, solver.stats().acceptedSteps);
}

// ---------------------------------------------------------------------------
// Step control on integrated state only

/// An RC low-pass (tau = 20 ns) driven by a 5 V step at 2 us, next to a 1 MHz
/// sine source. With @p withVcvs the sine also drives a x1000 VCVS into a
/// load: a 1 kV algebraic sinusoid that must not take part in step control.
struct RcNextToSine {
    AnalogSystem sys;
    NodeId rcIn = 0;
    NodeId rcOut = 0;
    NodeId sine = 0;
    NodeId amp = 0;

    explicit RcNextToSine(bool withVcvs)
    {
        rcIn = sys.node("rc_in");
        rcOut = sys.node("rc_out");
        sine = sys.node("sine");
        sys.add<PulseVoltage>(sys, "Vstep", rcIn, kGround, 0.0, 5.0, 2e-6, 1e-12, 1.0, 1e-12);
        sys.add<Resistor>(sys, "R1", rcIn, rcOut, 1e3);
        sys.add<Capacitor>(sys, "C1", rcOut, kGround, 20e-12);
        sys.add<SineVoltage>(sys, "Vs", sine, kGround, 0.0, 1.0, 1e6);
        sys.add<Resistor>(sys, "Rs", sine, kGround, 1e3);
        if (withVcvs) {
            amp = sys.node("amp");
            sys.add<Vcvs>(sys, "E1", amp, kGround, sine, kGround, 1000.0);
            sys.add<Resistor>(sys, "Rl", amp, kGround, 1e3);
        }
    }
};

TEST(SolverLte, RcNextToSineVcvsFollowsRcAndSourceHint)
{
    RcNextToSine withAmp(true);
    RcNextToSine plain(false);
    TransientSolver a(withAmp.sys);
    TransientSolver b(plain.sys);

    // Only the capacitor's node is integrated state.
    EXPECT_EQ(a.integratedUnknowns(), std::vector<int>{withAmp.rcOut - 1});
    EXPECT_EQ(b.integratedUnknowns(), std::vector<int>{plain.rcOut - 1});

    const double hint = 1.0 / (1e6 * 24.0);
    const double tau = 1e3 * 20e-12;
    double tLast = 0.0;
    double maxDt = 0.0;
    double maxDtInRcTransient = 0.0; // over [edge + tau, edge + 2 tau]
    a.onAccept([&](double t) {
        maxDt = std::max(maxDt, t - tLast);
        if (tLast >= 2e-6 + tau && t <= 2e-6 + 2.0 * tau) {
            maxDtInRcTransient = std::max(maxDtInRcTransient, t - tLast);
        }
        tLast = t;
    });
    a.solveDc();
    b.solveDc();
    for (double t : {1e-6, 2e-6 + tau, 2e-6 + 3.0 * tau, 5e-6, 10e-6}) {
        a.advanceTo(t);
        b.advanceTo(t);
        const double expected = t > 2e-6 ? 5.0 * (1.0 - std::exp(-(t - 2e-6) / tau)) : 0.0;
        EXPECT_NEAR(withAmp.sys.voltage(withAmp.rcOut), expected, 0.02) << "t = " << t;
        EXPECT_NEAR(withAmp.sys.voltage(withAmp.amp),
                    1000.0 * std::sin(2.0 * M_PI * 1e6 * t), 1e-6)
            << "t = " << t;
    }

    // The 1 kV sinusoid adds no step: same sequence as without it.
    EXPECT_EQ(a.stats().acceptedSteps, b.stats().acceptedSteps);
    EXPECT_EQ(a.stats().rejectedSteps, b.stats().rejectedSteps);
    EXPECT_EQ(withAmp.sys.voltage(withAmp.rcOut), plain.sys.voltage(plain.rcOut));

    // The source hint bounds every step; LTE on the RC node holds steps far
    // below it while the capacitor charges; elsewhere the solver runs at the
    // hint (10 us / hint = 240 steps).
    EXPECT_LE(maxDt, hint * (1.0 + 1e-9));
    EXPECT_GT(maxDtInRcTransient, 0.0);
    EXPECT_LT(maxDtInRcTransient, hint / 10.0);
    EXPECT_GE(a.stats().acceptedSteps, 240u);
    EXPECT_LE(a.stats().acceptedSteps, 400u);
}

TEST(SolverLte, IntegratedSetIsPerSystem)
{
    // Reference: the RC system on its own, advanced in 1 us segments.
    RcNextToSine alone(true);
    TransientSolver ref(alone.sys);
    ref.solveDc();
    for (int k = 1; k <= 10; ++k) {
        ref.advanceTo(k * 1e-6);
    }

    // The same RC system interleaved with a PLL in the same process.
    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond;
    pll::PllTestbench pllTb(cfg);
    auto& sim = pllTb.sim();
    sim.elaborate();
    RcNextToSine mixed(true);
    TransientSolver rc(mixed.sys);
    rc.solveDc();
    for (int k = 1; k <= 10; ++k) {
        sim.run(k * kMicrosecond);
        rc.advanceTo(k * 1e-6);
    }

    EXPECT_EQ(rc.stats().acceptedSteps, ref.stats().acceptedSteps);
    EXPECT_EQ(rc.stats().rejectedSteps, ref.stats().rejectedSteps);
    EXPECT_EQ(mixed.sys.state(), alone.sys.state());
    EXPECT_EQ(rc.integratedUnknowns(), std::vector<int>{mixed.rcOut - 1});

    // The PLL's set is its loop filter, not the VCO output or branches.
    auto& ana = sim.analog();
    const std::vector<int> pllSet = sim.solver().integratedUnknowns();
    const std::vector<int> filter{ana.node(pll::names::kVctrl) - 1,
                                  ana.node("pll/filt_mid") - 1};
    EXPECT_EQ(pllSet, (std::vector<int>{std::min(filter[0], filter[1]),
                                        std::max(filter[0], filter[1])}));
}

TEST(SolverLte, SnapshotRoundTripBitIdentical)
{
    auto captureAll = [](const TransientSolver& solver, const AnalogSystem& sys) {
        snapshot::Writer w;
        solver.captureState(w);
        for (const auto& comp : sys.components()) {
            comp->captureState(w);
        }
        return w.take();
    };

    // Uninterrupted run to 6 us, capturing at 3 us on the way.
    RcNextToSine donor(true);
    TransientSolver a(donor.sys);
    a.solveDc();
    a.advanceTo(3e-6);
    const std::vector<std::uint8_t> bytes = captureAll(a, donor.sys);
    a.advanceTo(6e-6);

    // A structural twin restored from the capture and run over the suffix.
    RcNextToSine twin(true);
    TransientSolver b(twin.sys);
    b.solveDc();
    snapshot::Reader r(bytes);
    b.restoreState(r);
    for (const auto& comp : twin.sys.components()) {
        comp->restoreState(r);
    }
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(captureAll(b, twin.sys), bytes); // the integrated set is not state
    b.advanceTo(6e-6);

    EXPECT_EQ(twin.sys.state(), donor.sys.state());
    EXPECT_EQ(b.time(), a.time());
    EXPECT_EQ(b.stats().acceptedSteps, a.stats().acceptedSteps);
    EXPECT_EQ(b.stats().rejectedSteps, a.stats().rejectedSteps);
    EXPECT_EQ(b.stats().linearSolves, a.stats().linearSolves);
    EXPECT_EQ(captureAll(b, twin.sys), captureAll(a, donor.sys));
}

} // namespace
} // namespace gfi::analog
