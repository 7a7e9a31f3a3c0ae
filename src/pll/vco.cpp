#include "pll/vco.hpp"

#include <algorithm>
#include <cmath>

namespace gfi::pll {

namespace {

// Points per output cycle of the step bound (maxStep). Even, so a half
// period is a whole number of steps: the digitizer's threshold crossings
// then fall within ~1 fs of a step end. Chosen against a tight reference
// (bench/abl_vco_resolution, tests/test_step_oracle.cpp).
constexpr double kPointsPerCycle = 8.0;

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

void BehavioralVco::stamp(analog::Stamper& s, const analog::Solution& x, double, double dt,
                          bool dcMode)
{
    const int br = s.varOfBranch(branch_);
    const int vo = s.varOfNode(out_);
    s.addA(vo, br, 1.0);
    s.addA(br, vo, 1.0);
    if (dcMode) {
        vctrl0_ = x.voltage(ctrl_); // prime the explicit control sample
    }
    const double ph =
        dcMode ? phase_ : phase_ + 2.0 * M_PI * frequency(vctrl0_) * dt;
    s.addB(br, offset_ + amplitude_ * std::sin(ph));
}

void BehavioralVco::acceptStep(const analog::Solution& x, double, double dt)
{
    phase_ += 2.0 * M_PI * frequency(vctrl0_) * dt;
    if (phase_ > 1e6) {
        phase_ = std::fmod(phase_, 2.0 * M_PI); // keep the argument accurate
    }
    vctrl0_ = x.voltage(ctrl_);
}

double BehavioralVco::maxStep(double) const
{
    // Edge timing comes from the crossing locator, not from the step size.
    return 1.0 / (frequency(vctrl0_) * kPointsPerCycle);
}

} // namespace gfi::pll
