#pragma once
// Behavioral voltage-controlled oscillator (paper Figure 5, "Analog VCO").
//
// Standard behavioral VCO model (Antao et al., reference [13]): the output
// frequency is f0 + Kvco * Vctrl and the output is a sinusoid obtained by
// integrating the instantaneous frequency into a phase. Over a step of
// length dt the phase advances by 2 pi f(v0 + s dt / 2) dt: the frequency at
// the step's midpoint, with V_ctrl extrapolated from its value v0 at the
// step start along its slope s over the last accepted step (s = 0 after the
// DC operating point). The rule is second order, exact for a linear V_ctrl
// ramp, and explicit: V_ctrl's loop-filter dynamics are orders of magnitude
// slower than the solver step, and the in-step output stays a fixed function
// of time, so the crossing locator converges to the exact edge.
//
// maxStep bounds a step to 1/4 of the output period: it returns the dt whose
// phase advance under that same rule is exactly 2 pi / 4, so a half period
// is two whole steps and the digitizer's threshold crossings fall on step
// ends. Nothing reads the sinusoid between the digitizer's edges; the step
// only sets how often the phase integration resamples the control voltage.
// 4 is the coarsest even number of points per cycle at which every PLL
// fault list still gets a tight reference's verdicts, with magnitudes inside
// the oracle's bounds (bench/abl_vco_resolution,
// tests/test_step_oracle.cpp); a V_ctrl frozen over each step misses the
// output error time bound there. Code that samples the output itself sets
// SolverOptions::dtMax.

#include "analog/system.hpp"

namespace gfi::pll {

/// Sinusoidal behavioral VCO stamped as a branch voltage source.
class BehavioralVco : public analog::AnalogComponent {
public:
    /// @param f0         free-running frequency at Vctrl = 0 (Hz)
    /// @param kvco       gain (Hz per volt)
    /// @param offset     output DC level (V); the paper's digitizer threshold
    ///                   sits at this level
    /// @param amplitude  output sine amplitude (V)
    BehavioralVco(analog::AnalogSystem& sys, std::string name, analog::NodeId ctrl,
                  analog::NodeId out, double f0, double kvco, double offset = 2.5,
                  double amplitude = 2.5);

    /// Instantaneous frequency for a control voltage (clamped to stay
    /// physical under large fault transients).
    [[nodiscard]] double frequency(double vctrl) const;

    /// Accumulated phase (radians).
    [[nodiscard]] double phase() const noexcept { return phase_; }

    /// Gain mutator (parametric fault target).
    void setKvco(double kvco) { kvco_ = kvco; }
    [[nodiscard]] double kvco() const noexcept { return kvco_; }

    /// Center-frequency mutator (parametric fault target).
    void setF0(double f0) { f0_ = f0; }
    [[nodiscard]] double f0() const noexcept { return f0_; }

    void stamp(analog::Stamper& s, const analog::Solution& x, double t, double dt,
               bool dcMode) override;
    void acceptStep(const analog::Solution& x, double t, double dt) override;
    [[nodiscard]] double maxStep(double t) const override;

    void captureState(snapshot::Writer& w) const override
    {
        w.f64(phase_);
        w.f64(vctrl0_);
        w.f64(slope_);
    }

    void restoreState(snapshot::Reader& r) override
    {
        phase_ = r.f64();
        vctrl0_ = r.f64();
        slope_ = r.f64();
    }

private:
    /// Phase advance over a step of @p dt from the current step start.
    [[nodiscard]] double phaseAdvance(double dt) const;

    analog::NodeId ctrl_;
    analog::NodeId out_;
    int branch_;
    double f0_;
    double kvco_;
    double offset_;
    double amplitude_;
    double phase_ = 0.0;
    double vctrl0_ = 0.0; // control voltage at the start of the current step
    double slope_ = 0.0;  // its slope over the last accepted step (V/s)
};

} // namespace gfi::pll
