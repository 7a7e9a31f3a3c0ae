#include "analog/passive.hpp"

#include <stdexcept>

namespace gfi::analog {

// ---------------------------------------------------------------------------
// Resistor

Resistor::Resistor(AnalogSystem& sys, std::string name, NodeId a, NodeId b, double ohms)
    : AnalogComponent(std::move(name)), a_(a), b_(b), ohms_(ohms)
{
    (void)sys;
    if (ohms <= 0.0) {
        throw std::invalid_argument("Resistor '" + this->name() + "': non-positive resistance");
    }
}

void Resistor::stamp(Stamper& s, const Solution&, double, double, bool)
{
    s.conductance(a_, b_, 1.0 / ohms_);
}

// ---------------------------------------------------------------------------
// Capacitor

Capacitor::Capacitor(AnalogSystem& sys, std::string name, NodeId a, NodeId b, double farads)
    : AnalogComponent(std::move(name)), a_(a), b_(b), farads_(farads)
{
    (void)sys;
    if (farads <= 0.0) {
        throw std::invalid_argument("Capacitor '" + this->name() + "': non-positive capacitance");
    }
}

void Capacitor::stamp(Stamper& s, const Solution& x, double, double dt, bool dcMode)
{
    if (dcMode) {
        // Open circuit at DC; remember the operating-point voltage so the
        // first transient step starts from it.
        v0_ = x.voltage(a_) - x.voltage(b_);
        primed_ = true;
        return;
    }
    if (!primed_) {
        v0_ = x.voltage(a_) - x.voltage(b_); // cold start without a DC pass
        primed_ = true;
    }
    companion(dt);
    s.conductance(a_, b_, geq_);
    // The constant part irhs_ is a current leaving node a.
    s.currentInto(a_, -irhs_);
    s.currentInto(b_, irhs_);
}

void Capacitor::companion(double dt)
{
    if (hasHistory_) {
        // Trapezoidal companion: i1 = (2C/dt)(v1 - v0) - i0.
        geq_ = 2.0 * farads_ / dt;
        irhs_ = -geq_ * v0_ - i0_;
    } else {
        // Backward Euler for the first step (or after a discontinuity).
        geq_ = farads_ / dt;
        irhs_ = -geq_ * v0_;
    }
}

void Capacitor::acceptStep(const Solution& x, double, double dt)
{
    // The last stamp may belong to a trial step (a crossing search stamps
    // shorter steps than the one it accepts): rebuild the accepted one's.
    companion(dt);
    const double v1 = x.voltage(a_) - x.voltage(b_);
    i0_ = geq_ * v1 + irhs_;
    v0_ = v1;
    hasHistory_ = true;
}

// ---------------------------------------------------------------------------
// Inductor

Inductor::Inductor(AnalogSystem& sys, std::string name, NodeId a, NodeId b, double henries)
    : AnalogComponent(std::move(name)), a_(a), b_(b), henries_(henries)
{
    (void)sys;
    if (henries <= 0.0) {
        throw std::invalid_argument("Inductor '" + this->name() + "': non-positive inductance");
    }
}

void Inductor::stamp(Stamper& s, const Solution&, double, double dt, bool dcMode)
{
    if (dcMode) {
        // Near-short at DC.
        s.conductance(a_, b_, 1e9);
        return;
    }
    companion(dt);
    s.conductance(a_, b_, geq_);
    // irhs_ is a constant current flowing a -> b.
    s.currentInto(a_, -irhs_);
    s.currentInto(b_, irhs_);
}

void Inductor::companion(double dt)
{
    if (hasHistory_) {
        // Trapezoidal companion: i1 = i0 + dt/(2L) * (v0 + v1).
        geq_ = dt / (2.0 * henries_);
        irhs_ = i0_ + geq_ * v0_;
    } else {
        // Backward Euler: i1 = i0 + (dt/L) v1.
        geq_ = dt / henries_;
        irhs_ = i0_;
    }
}

void Inductor::acceptStep(const Solution& x, double, double dt)
{
    companion(dt); // the accepted step's companion, as for Capacitor
    const double v1 = x.voltage(a_) - x.voltage(b_);
    i0_ = geq_ * v1 + irhs_;
    v0_ = v1;
    hasHistory_ = true;
}

} // namespace gfi::analog

// ---------------------------------------------------------------------------
// Small-signal (AC) stamps

namespace gfi::analog {

bool Resistor::stampAc(ComplexStamper& s, double) const
{
    s.admittance(a_, b_, {1.0 / ohms_, 0.0});
    return true;
}

bool Capacitor::stampAc(ComplexStamper& s, double omega) const
{
    s.admittance(a_, b_, {0.0, omega * farads_});
    return true;
}

bool Inductor::stampAc(ComplexStamper& s, double omega) const
{
    if (omega <= 0.0) {
        return true; // DC: handled by the transient/DC path, skip
    }
    s.admittance(a_, b_, std::complex<double>{0.0, -1.0 / (omega * henries_)});
    return true;
}

} // namespace gfi::analog
