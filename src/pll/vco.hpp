#pragma once
// Behavioral voltage-controlled oscillator (paper Figure 5, "Analog VCO").
//
// Standard behavioral VCO model (Antao et al., reference [13]): the output
// frequency is f0 + Kvco * Vctrl and the output is a sinusoid obtained by
// integrating the instantaneous frequency into a phase. The control voltage
// is sampled at the start of each solver step (explicit coupling), which is
// exact to first order because the loop-filter dynamics are orders of
// magnitude slower than the solver step; it also makes the in-step output a
// pure sinusoid of time, so the crossing locator converges to the exact edge.
//
// maxStep bounds a step to 1/8 of the output period. Nothing reads the
// sinusoid between the digitizer's edges; the step only sets how often the
// phase integration resamples the control voltage. 8 is the coarsest of 16,
// 12 and 8 points per cycle at which every PLL fault list still gets a tight
// reference's verdicts, with magnitudes inside the oracle's bounds
// (bench/abl_vco_resolution, tests/test_step_oracle.cpp). Code that samples
// the output itself sets SolverOptions::dtMax.

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
    }

    void restoreState(snapshot::Reader& r) override
    {
        phase_ = r.f64();
        vctrl0_ = r.f64();
    }

private:
    analog::NodeId ctrl_;
    analog::NodeId out_;
    int branch_;
    double f0_;
    double kvco_;
    double offset_;
    double amplitude_;
    double phase_ = 0.0;
    double vctrl0_ = 0.0; // control voltage at the start of the current step
};

} // namespace gfi::pll
