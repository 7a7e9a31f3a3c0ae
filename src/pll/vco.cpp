#include "pll/vco.hpp"

#include <algorithm>
#include <cmath>

namespace gfi::pll {

namespace {

// Points per output cycle of the step bound (maxStep). Even, so a half
// period is a whole number of steps: the digitizer's threshold crossings
// then fall within ~1 fs of a step end. The coarsest even count that passes
// the tight reference under the extrapolated-midpoint phase rule
// (bench/abl_vco_resolution, tests/test_step_oracle.cpp); 2 fails it.
constexpr double kPointsPerCycle = 4.0;

// Fixed-point iterations of maxStep's fallback, where the exact advance has
// no closed form because the midpoint frequency is clamped.
constexpr int kFallbackIterations = 4;

} // namespace

BehavioralVco::BehavioralVco(analog::AnalogSystem& sys, std::string name, analog::NodeId ctrl,
                             analog::NodeId out, double f0, double kvco, double offset,
                             double amplitude)
    : analog::AnalogComponent(std::move(name)), ctrl_(ctrl), out_(out),
      branch_(sys.allocateBranch()), f0_(f0), kvco_(kvco), offset_(offset),
      amplitude_(amplitude)
{
}

double BehavioralVco::frequency(double vctrl) const
{
    // Clamp: a real VCO neither stops nor runs away under a fault transient.
    return std::clamp(f0_ + kvco_ * vctrl, 0.05 * f0_, 5.0 * f0_);
}

double BehavioralVco::phaseAdvance(double dt) const
{
    return 2.0 * M_PI * frequency(vctrl0_ + 0.5 * slope_ * dt) * dt;
}

void BehavioralVco::stamp(analog::Stamper& s, const analog::Solution& x, double, double dt,
                          bool dcMode)
{
    const int br = s.varOfBranch(branch_);
    const int vo = s.varOfNode(out_);
    s.addA(vo, br, 1.0);
    s.addA(br, vo, 1.0);
    if (dcMode) {
        vctrl0_ = x.voltage(ctrl_); // prime the explicit control sample
        slope_ = 0.0;
    }
    const double ph = dcMode ? phase_ : phase_ + phaseAdvance(dt);
    s.addB(br, offset_ + amplitude_ * std::sin(ph));
}

void BehavioralVco::acceptStep(const analog::Solution& x, double, double dt)
{
    phase_ += phaseAdvance(dt);
    if (phase_ > 1e6) {
        phase_ = std::fmod(phase_, 2.0 * M_PI); // keep the argument accurate
    }
    const double v = x.voltage(ctrl_);
    slope_ = (v - vctrl0_) / dt;
    vctrl0_ = v;
}

double BehavioralVco::maxStep(double) const
{
    // Edge timing comes from the crossing locator, not from the step size;
    // the step is the one whose phase advance is exactly 2 pi / N. Unclamped,
    // that is the positive root of b dt + a dt^2 / 2 = 1/N, with b the
    // frequency at the step start and a its slope.
    constexpr double cycles = 1.0 / kPointsPerCycle;
    const double b = f0_ + kvco_ * vctrl0_;
    const double a = kvco_ * slope_;
    const double disc = b * b + 2.0 * a * cycles;
    const double den = disc >= 0.0 ? b + std::sqrt(disc) : 0.0;
    if (den > 0.0) {
        const double dt = 2.0 * cycles / den;
        const double vMid = vctrl0_ + 0.5 * slope_ * dt;
        if (frequency(vMid) == f0_ + kvco_ * vMid) { // the midpoint is not clamped
            return dt;
        }
    }
    double dt = cycles / frequency(vctrl0_);
    for (int i = 0; i < kFallbackIterations; ++i) {
        dt = cycles / frequency(vctrl0_ + 0.5 * slope_ * dt);
    }
    return dt;
}

} // namespace gfi::pll
