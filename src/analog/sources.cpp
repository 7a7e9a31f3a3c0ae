#include "analog/sources.hpp"

#include <cmath>

namespace gfi::analog {

namespace {

void appendBreakpoints(const TimeFunction& fn, double tNow, double tMax,
                       std::vector<double>& out)
{
    for (double bp : fn.breakpoints) {
        if (bp > tNow && bp <= tMax) {
            out.push_back(bp);
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// VoltageSource

VoltageSource::VoltageSource(AnalogSystem& sys, std::string name, NodeId p, NodeId m,
                             double dcVolts)
    : AnalogComponent(std::move(name)), p_(p), m_(m), branch_(sys.allocateBranch()),
      dc_(dcVolts)
{
}

void VoltageSource::stamp(Stamper& s, const Solution&, double t, double, bool)
{
    const int br = s.varOfBranch(branch_);
    const int vp = s.varOfNode(p_);
    const int vm = s.varOfNode(m_);
    // KCL rows: branch current leaves p, enters m.
    s.addA(vp, br, 1.0);
    s.addA(vm, br, -1.0);
    // Branch row: V(p) - V(m) = value(t).
    s.addA(br, vp, 1.0);
    s.addA(br, vm, -1.0);
    s.addB(br, valueAt(t));
}

void VoltageSource::collectBreakpoints(double tNow, double tMax, std::vector<double>& out)
{
    appendBreakpoints(fn_, tNow, tMax, out);
}

double VoltageSource::maxStep(double) const
{
    return fn_.maxStep;
}

// ---------------------------------------------------------------------------
// PulseVoltage

PulseVoltage::PulseVoltage(AnalogSystem& sys, std::string name, NodeId p, NodeId m, double v0,
                           double v1, double delay, double rise, double width, double fall,
                           double period)
    : VoltageSource(sys, std::move(name), p, m, v0)
{
    TimeFunction fn;
    fn.value = [=](double t) {
        if (t < delay) {
            return v0;
        }
        double local = t - delay;
        if (period > 0.0) {
            local = std::fmod(local, period);
        }
        if (local < rise) {
            return rise <= 0.0 ? v1 : v0 + (v1 - v0) * (local / rise);
        }
        local -= rise;
        if (local < width) {
            return v1;
        }
        local -= width;
        if (local < fall) {
            return fall <= 0.0 ? v0 : v1 + (v0 - v1) * (local / fall);
        }
        return v0;
    };
    // Corner times of the first few pulses; repeated pulses add corners per
    // period up to a sane horizon the solver trims anyway.
    const int repeats = period > 0.0 ? 64 : 1;
    for (int k = 0; k < repeats; ++k) {
        const double base = delay + (period > 0.0 ? k * period : 0.0);
        fn.breakpoints.push_back(base);
        fn.breakpoints.push_back(base + rise);
        fn.breakpoints.push_back(base + rise + width);
        fn.breakpoints.push_back(base + rise + width + fall);
    }
    setFunction(std::move(fn));
}

// ---------------------------------------------------------------------------
// SineVoltage

SineVoltage::SineVoltage(AnalogSystem& sys, std::string name, NodeId p, NodeId m, double offset,
                         double amplitude, double hz, double delay, double phaseRad)
    : VoltageSource(sys, std::move(name), p, m, offset)
{
    TimeFunction fn;
    fn.value = [=](double t) {
        if (t < delay) {
            return offset;
        }
        return offset + amplitude * std::sin(2.0 * M_PI * hz * (t - delay) + phaseRad);
    };
    if (delay > 0.0) {
        fn.breakpoints.push_back(delay);
    }
    if (hz > 0.0) {
        fn.maxStep = 1.0 / (hz * 24.0);
    }
    setFunction(std::move(fn));
}

// ---------------------------------------------------------------------------
// CurrentSource

CurrentSource::CurrentSource(AnalogSystem& sys, std::string name, NodeId p, NodeId m,
                             double dcAmps)
    : AnalogComponent(std::move(name)), p_(p), m_(m), dc_(dcAmps)
{
    (void)sys;
}

void CurrentSource::stamp(Stamper& s, const Solution&, double t, double, bool)
{
    const double i = valueAt(t);
    s.currentInto(p_, i);
    s.currentInto(m_, -i);
}

void CurrentSource::collectBreakpoints(double tNow, double tMax, std::vector<double>& out)
{
    appendBreakpoints(fn_, tNow, tMax, out);
}

double CurrentSource::maxStep(double) const
{
    return fn_.maxStep;
}

// ---------------------------------------------------------------------------
// Switch

Switch::Switch(AnalogSystem& sys, std::string name, NodeId a, NodeId b, NodeId ctrlP,
               NodeId ctrlM, double threshold, double ron, double roff)
    : AnalogComponent(std::move(name)), a_(a), b_(b), ctrlP_(ctrlP), ctrlM_(ctrlM),
      threshold_(threshold), gon_(1.0 / ron), goff_(1.0 / roff)
{
    (void)sys;
}

void Switch::stamp(Stamper& s, const Solution& x, double, double, bool)
{
    const double vc = x.voltage(ctrlP_) - x.voltage(ctrlM_);
    s.conductance(a_, b_, vc > threshold_ ? gon_ : goff_);
}

} // namespace gfi::analog

// ---------------------------------------------------------------------------
// Small-signal (AC) stamps

namespace gfi::analog {

bool VoltageSource::stampAc(ComplexStamper& s, double) const
{
    const int br = s.varOfBranch(branch_);
    const int vp = s.varOfNode(p_);
    const int vm = s.varOfNode(m_);
    s.addA(vp, br, {1.0, 0.0});
    s.addA(vm, br, {-1.0, 0.0});
    s.addA(br, vp, {1.0, 0.0});
    s.addA(br, vm, {-1.0, 0.0});
    // The selected AC input drives 1 V; every other voltage source is an
    // AC short (0 V).
    s.addB(br, {name() == s.acInput() ? 1.0 : 0.0, 0.0});
    return true;
}

bool CurrentSource::stampAc(ComplexStamper&, double) const
{
    // Independent current sources are AC opens (zero small-signal drive).
    return true;
}

} // namespace gfi::analog
