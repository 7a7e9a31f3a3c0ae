#pragma once
// Passive linear components: resistor, capacitor, inductor.
//
// Dynamic elements use companion models: trapezoidal integration by default
// (switchable to backward Euler for the first step after a discontinuity,
// which damps the trapezoidal method's characteristic ringing on steps).

#include "analog/system.hpp"

namespace gfi::analog {

/// Linear resistor between two nodes.
class Resistor : public AnalogComponent {
public:
    Resistor(AnalogSystem& sys, std::string name, NodeId a, NodeId b, double ohms);

    /// Resistance accessor/mutator (mutation models a parametric fault).
    [[nodiscard]] double resistance() const noexcept { return ohms_; }
    void setResistance(double ohms) { ohms_ = ohms; }

    void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) override;
    bool stampAc(ComplexStamper& s, double omega) const override;

private:
    NodeId a_;
    NodeId b_;
    double ohms_;
};

/// Linear capacitor between two nodes.
class Capacitor : public AnalogComponent {
public:
    Capacitor(AnalogSystem& sys, std::string name, NodeId a, NodeId b, double farads);

    /// Capacitance accessor/mutator (mutation models a parametric fault).
    [[nodiscard]] double capacitance() const noexcept { return farads_; }
    void setCapacitance(double farads) { farads_ = farads; }

    /// Drops companion history so the next step integrates with backward
    /// Euler — called by the solver after discontinuities.
    void resetHistory() { hasHistory_ = false; }

    void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) override;
    void acceptStep(const Solution& x, double t, double dt) override;
    void notifyDiscontinuity() override { resetHistory(); }
    void integratedNodes(std::vector<NodeId>& out) const override
    {
        out.push_back(a_);
        out.push_back(b_);
    }
    bool stampAc(ComplexStamper& s, double omega) const override;

    void captureState(snapshot::Writer& w) const override
    {
        w.f64(v0_);
        w.f64(i0_);
        w.f64(geq_);
        w.f64(irhs_);
        w.boolean(hasHistory_);
        w.boolean(primed_);
    }

    void restoreState(snapshot::Reader& r) override
    {
        v0_ = r.f64();
        i0_ = r.f64();
        geq_ = r.f64();
        irhs_ = r.f64();
        hasHistory_ = r.boolean();
        primed_ = r.boolean();
    }

private:
    /// Sets geq_ and irhs_ for a step of @p dt from the step-start history.
    void companion(double dt);

    NodeId a_;
    NodeId b_;
    double farads_;
    double v0_ = 0.0;   // voltage across at start of step
    double i0_ = 0.0;   // current through at start of step
    double geq_ = 0.0;  // companion conductance of the last stamped or accepted step
    double irhs_ = 0.0; // companion source of the last stamped or accepted step
    bool hasHistory_ = false;
    bool primed_ = false; // v0_ initialized from the DC solution
};

/// Linear inductor between two nodes (Norton companion form).
class Inductor : public AnalogComponent {
public:
    Inductor(AnalogSystem& sys, std::string name, NodeId a, NodeId b, double henries);

    /// Inductance accessor/mutator (mutation models a parametric fault).
    [[nodiscard]] double inductance() const noexcept { return henries_; }
    void setInductance(double henries) { henries_ = henries; }

    /// Drops companion history (backward Euler restart after discontinuity).
    void resetHistory() { hasHistory_ = false; }

    void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) override;
    void acceptStep(const Solution& x, double t, double dt) override;
    void notifyDiscontinuity() override { resetHistory(); }
    void integratedNodes(std::vector<NodeId>& out) const override
    {
        out.push_back(a_);
        out.push_back(b_);
    }
    bool stampAc(ComplexStamper& s, double omega) const override;

    void captureState(snapshot::Writer& w) const override
    {
        w.f64(v0_);
        w.f64(i0_);
        w.f64(geq_);
        w.f64(irhs_);
        w.boolean(hasHistory_);
    }

    void restoreState(snapshot::Reader& r) override
    {
        v0_ = r.f64();
        i0_ = r.f64();
        geq_ = r.f64();
        irhs_ = r.f64();
        hasHistory_ = r.boolean();
    }

private:
    /// Sets geq_ and irhs_ for a step of @p dt from the step-start history.
    void companion(double dt);

    NodeId a_;
    NodeId b_;
    double henries_;
    double v0_ = 0.0;
    double i0_ = 0.0;
    double geq_ = 0.0;
    double irhs_ = 0.0;
    bool hasHistory_ = false;
};

} // namespace gfi::analog
