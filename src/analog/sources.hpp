#pragma once
// Independent sources: voltage (branch-based MNA) and current, each drivable
// by a DC level, an arbitrary time function with breakpoints, or a piecewise-
// constant level set from outside (the D->A bridge and the charge pump use
// the latter). The time-function current source is also the foundation of the
// paper's analog saboteur: a current waveform superposed on a node.

#include "analog/system.hpp"

#include <functional>

namespace gfi::analog {

/// A scalar function of time plus the discontinuity times the integrator must
/// not step across, and the largest step that still resolves its shape. Step
/// control checks truncation error on integrated state only, so a smooth
/// drive into a purely algebraic circuit is resolved by this hint alone.
struct TimeFunction {
    std::function<double(double)> value;
    std::vector<double> breakpoints;
    double maxStep = 1e30; ///< seconds; 1e30 = unbounded
};

/// Independent voltage source (adds one MNA branch).
/// Branch current follows the SPICE passive-sign convention: positive current
/// flows INTO the + terminal (so a source delivering power reads negative).
class VoltageSource : public AnalogComponent {
public:
    VoltageSource(AnalogSystem& sys, std::string name, NodeId p, NodeId m, double dcVolts);

    /// Drives the source from an arbitrary time function.
    void setFunction(TimeFunction fn) { fn_ = std::move(fn); }

    /// Sets a constant level (piecewise-constant drive; clears any function).
    void setLevel(double volts)
    {
        fn_ = {};
        dc_ = volts;
    }

    /// Present drive value at time @p t.
    [[nodiscard]] double valueAt(double t) const { return fn_.value ? fn_.value(t) : dc_; }

    /// Branch current in @p x (positive: + -> - through the source).
    [[nodiscard]] double current(const Solution& x) const { return x.branchCurrent(branch_); }

    /// MNA branch index (current-controlled sources sense this branch).
    [[nodiscard]] int branchIndex() const noexcept { return branch_; }

    void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) override;
    void collectBreakpoints(double tNow, double tMax, std::vector<double>& out) override;
    [[nodiscard]] double maxStep(double t) const override;
    bool stampAc(ComplexStamper& s, double omega) const override;

    /// Snapshot: the DC level plus whether a time function was active. The
    /// function itself is code, not data — a restore keeps the (identical)
    /// constructor-installed function, or clears it if the golden run had
    /// switched the source to piecewise-constant drive by capture time.
    void captureState(snapshot::Writer& w) const override
    {
        w.f64(dc_);
        w.boolean(static_cast<bool>(fn_.value));
    }

    void restoreState(snapshot::Reader& r) override
    {
        dc_ = r.f64();
        if (!r.boolean()) {
            fn_ = {};
        }
    }

private:
    NodeId p_;
    NodeId m_;
    int branch_;
    double dc_;
    TimeFunction fn_;
};

/// SPICE-style pulse voltage source (v0 -> v1 pulses with linear edges).
class PulseVoltage : public VoltageSource {
public:
    /// @param period  0 disables repetition (single pulse).
    PulseVoltage(AnalogSystem& sys, std::string name, NodeId p, NodeId m, double v0, double v1,
                 double delay, double rise, double width, double fall, double period = 0.0);
};

/// Sinusoidal voltage source: offset + amplitude * sin(2*pi*f*(t-delay) + phase).
/// Steps at most period/24, so its waveform is sampled finely enough to read
/// between steps.
class SineVoltage : public VoltageSource {
public:
    SineVoltage(AnalogSystem& sys, std::string name, NodeId p, NodeId m, double offset,
                double amplitude, double hz, double delay = 0.0, double phaseRad = 0.0);
};

/// Independent current source. Positive value pushes current INTO node p
/// (out of node m), matching the "current summation on the node" semantics
/// the paper's saboteur relies on.
class CurrentSource : public AnalogComponent {
public:
    CurrentSource(AnalogSystem& sys, std::string name, NodeId p, NodeId m, double dcAmps);

    /// Drives the source from an arbitrary time function.
    void setFunction(TimeFunction fn) { fn_ = std::move(fn); }

    /// Sets a constant level (piecewise-constant drive; clears any function).
    void setLevel(double amps)
    {
        fn_ = {};
        dc_ = amps;
    }

    /// Present drive value at time @p t.
    [[nodiscard]] double valueAt(double t) const { return fn_.value ? fn_.value(t) : dc_; }

    void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) override;
    void collectBreakpoints(double tNow, double tMax, std::vector<double>& out) override;
    [[nodiscard]] double maxStep(double t) const override;
    bool stampAc(ComplexStamper& s, double omega) const override;

    /// Snapshot semantics mirror VoltageSource::captureState.
    void captureState(snapshot::Writer& w) const override
    {
        w.f64(dc_);
        w.boolean(static_cast<bool>(fn_.value));
    }

    void restoreState(snapshot::Reader& r) override
    {
        dc_ = r.f64();
        if (!r.boolean()) {
            fn_ = {};
        }
    }

private:
    NodeId p_;
    NodeId m_;
    double dc_;
    TimeFunction fn_;
};

/// Ideal voltage-controlled switch: Ron when (Vc+ - Vc-) > threshold, else Roff.
class Switch : public AnalogComponent {
public:
    Switch(AnalogSystem& sys, std::string name, NodeId a, NodeId b, NodeId ctrlP, NodeId ctrlM,
           double threshold = 0.5, double ron = 1.0, double roff = 1e9);

    void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) override;
    [[nodiscard]] bool isNonlinear() const override { return true; }

private:
    NodeId a_;
    NodeId b_;
    NodeId ctrlP_;
    NodeId ctrlM_;
    double threshold_;
    double gon_;
    double goff_;
};

} // namespace gfi::analog
