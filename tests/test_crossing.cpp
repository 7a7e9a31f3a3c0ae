// Crossing location (analog/crossing.hpp): locateCrossing must return the
// bracket the bisection reaches, bit for bit, on monotone predicates; a valid
// bracket through the bisection fallback on non-monotone ones; the
// bisection's "stop and keep hi" bracket when a probe fails; and, in every
// case, the probes and bracket of the loop that replays after every probe.

#include "analog/crossing.hpp"
#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

namespace gfi::analog {
namespace {

constexpr double kTol = 1e-15;

/// The bisection the solver ran before locateCrossing, kept verbatim.
template <class Probe>
std::pair<double, double> referenceBisection(double dt, double tol, Probe&& probe)
{
    double lo = 0.0;
    double hi = dt;
    while (hi - lo > tol) {
        const double mid = 0.5 * (lo + hi);
        const CrossingProbe p = probe(mid);
        if (!p.ok) {
            break;
        }
        if (p.crossed) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return {lo, hi};
}

/// Probe over an analytic g(t): crossed iff g >= 0. Counts the calls and
/// keeps the time of the most recent crossed one.
template <class G>
auto analyticProbe(G g, int& calls, double& lastCrossed)
{
    return [g, &calls, &lastCrossed](double t) {
        ++calls;
        const double v = g(t);
        if (v >= 0.0) {
            lastCrossed = t;
        }
        return CrossingProbe{true, v >= 0.0, v};
    };
}

struct SweepResult {
    int cases = 0;
    int fallbacks = 0;
    int probes = 0;
};

/// Runs one seeded case: the locator's bracket must equal the reference's.
template <class G>
void checkCase(double dt, G g, SweepResult& out)
{
    const double g0 = g(0.0);
    const double g1 = g(dt);
    if (!(g0 < 0.0 && g1 >= 0.0)) {
        return; // the draw put the crossing outside the step
    }
    int refCalls = 0;
    double refLast = dt;
    const auto [refLo, refHi] =
        referenceBisection(dt, kTol, analyticProbe(g, refCalls, refLast));
    int calls = 0;
    double lastCrossed = dt;
    const CrossingBracket got =
        locateCrossing(dt, g0, g1, kTol, analyticProbe(g, calls, lastCrossed));
    ASSERT_EQ(got.lo, refLo) << "dt " << dt;
    ASSERT_EQ(got.hi, refHi) << "dt " << dt;
    ASSERT_EQ(got.hi, lastCrossed) << "the cut state must be the latest crossed probe's";
    ++out.cases;
    out.fallbacks += got.fellBack ? 1 : 0;
    out.probes += calls;
}

TEST(CrossingLocator, SineSweepMatchesBisection)
{
    // A rising sinusoid over a step of up to 1/24 of its period, the
    // crossing anywhere in the step, the threshold anywhere in the middle
    // 90 % of the swing.
    std::mt19937_64 rng(20041);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    SweepResult r;
    for (int i = 0; i < 2000; ++i) {
        const double dt = 0.05e-9 + 2e-9 * u(rng);
        const double w = (0.25 + 0.75 * u(rng)) * 2.0 * M_PI / (24.0 * dt);
        const double tStar = dt * u(rng);
        const double c = -0.9 + 1.8 * u(rng);
        const double amp = 0.5 + u(rng);
        const double offset = u(rng);
        const double theta0 = std::asin(c) - w * tStar;
        const double thr = offset + amp * c;
        checkCase(dt, [=](double t) { return offset + amp * std::sin(theta0 + w * t) - thr; },
                  r);
    }
    EXPECT_GT(r.cases, 1900);
    EXPECT_EQ(r.fallbacks, 0);
    EXPECT_LT(r.probes, 5 * r.cases); // bisection: ~20 per crossing
}

TEST(CrossingLocator, RcExponentialSweepMatchesBisection)
{
    // Charging (rising) and discharging (falling, sign-flipped) RC nodes.
    // Steps that resolve the exponential (tau >= dt/4; step control keeps
    // steps well inside that) verify without the fallback. Sharper ones may
    // spend the probe budget and bisect; the bracket is the bisection's
    // either way.
    std::mt19937_64 rng(20042);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    SweepResult resolved;
    SweepResult sharp;
    for (int i = 0; i < 2000; ++i) {
        const double dt = 0.01e-9 + 5e-9 * u(rng);
        const double tau = dt * (0.05 + 4.0 * u(rng));
        const double v0 = -1.0 + 2.0 * u(rng);
        const double vf = v0 + (u(rng) < 0.5 ? 1.0 : -1.0) * (0.1 + 2.0 * u(rng));
        const double sign = vf > v0 ? 1.0 : -1.0;
        const double tStar = dt * u(rng);
        const double thr = vf + (v0 - vf) * std::exp(-tStar / tau);
        checkCase(
            dt, [=](double t) { return sign * (vf + (v0 - vf) * std::exp(-t / tau) - thr); },
            tau >= 0.25 * dt ? resolved : sharp);
    }
    EXPECT_GT(resolved.cases + sharp.cases, 1900);
    EXPECT_EQ(resolved.fallbacks, 0);
    EXPECT_LT(resolved.probes, 7 * resolved.cases);
}

TEST(CrossingLocator, RoundoffNoisyRampMatchesBisection)
{
    // A ramp riding on a large offset: rounding makes g a staircase whose
    // flat runs span from a fraction of the tolerance to hundreds of it. The
    // predicate stays monotone (rounding is), the estimate does not see the
    // stairs; the bracket must still be the bisection's.
    std::mt19937_64 rng(20043);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    SweepResult r;
    for (int i = 0; i < 2000; ++i) {
        const double dt = 0.1e-9 + 2e-9 * u(rng);
        const double big = 1.0 + 9.0 * u(rng);
        const double slope = std::pow(10.0, -2.0 + 5.0 * u(rng)); // V/s
        const double tStar = dt * u(rng);
        const double thr = big + slope * tStar;
        checkCase(dt, [=](double t) { return (big + slope * t) - thr; }, r);
    }
    EXPECT_GT(r.cases, 1900);
}

/// locateCrossing as it ran before a probe that answers as predicted could
/// verify the bracket, kept verbatim: after every probe it estimates and
/// replays again.
template <class Probe>
CrossingBracket replayAfterEveryProbe(double dt, double g0, double g1, double tol,
                                      Probe&& probe)
{
    double vLo = 0.0;
    double gLo = g0;
    double vHi = dt;
    double gHi = g1;
    int kept = 0;
    auto record = [&](double t, const CrossingProbe& p) {
        if (!p.ok || p.crossed != (p.g >= 0.0)) {
            return false;
        }
        if (p.crossed) {
            vHi = t;
            gHi = p.g;
            if (kept < 0) {
                gLo *= 0.5;
            }
            kept = -1;
        } else {
            vLo = t;
            gLo = p.g;
            if (kept > 0) {
                gHi *= 0.5;
            }
            kept = 1;
        }
        return true;
    };
    for (int probes = 0;; ++probes) {
        const double est = vLo - gLo * (vHi - vLo) / (gHi - gLo);
        double lo = 0.0;
        double hi = dt;
        while (hi - lo > tol) {
            const double mid = 0.5 * (lo + hi);
            if (mid >= vHi || (mid > vLo && mid >= est)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        double t = hi;
        if (hi >= vHi) {
            if (lo <= vLo) {
                return {lo, hi, false};
            }
            t = lo;
        }
        if (probes == kCrossingProbes || !record(t, probe(t))) {
            break;
        }
    }
    double lo = 0.0;
    double hi = dt;
    while (hi - lo > tol) {
        const double mid = 0.5 * (lo + hi);
        const CrossingProbe p = probe(mid);
        if (!p.ok) {
            break;
        }
        if (p.crossed) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return {lo, hi, true};
}

TEST(CrossingLocator, ProbeVerifiedBracketMatchesReplayAfterEveryProbe)
{
    // Seeded steps: sinusoids over up to a quarter period (the VCO's step
    // bound) with the crossing anywhere or within 2 tol of either end, RC
    // exponentials, a ramp on a large offset, and linear g whose predicate
    // glitches just before the crossing or whose trial solves fail near it.
    // The locator must probe the same times and return the same bracket,
    // bit for bit, as the loop that replays after every probe.
    std::mt19937_64 rng(20044);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    int cases = 0;
    int verified = 0;
    int fellBack = 0;
    for (int i = 0; i < 100000; ++i) {
        const double dt = 0.05e-9 + 5e-9 * u(rng);
        const double tStar = i % 5 == 1   ? (u(rng) < 0.5 ? 2 * kTol * u(rng)
                                                          : dt - 2 * kTol * u(rng))
                             : dt * u(rng);
        std::function<double(double)> g;
        double glitchLo = 2 * dt;
        double glitchHi = -1.0;
        double failLo = 2 * dt;
        double failHi = -1.0;
        switch (i % 5) {
        case 0:
        case 1: {
            const double w = (0.25 + 0.75 * u(rng)) * 2.0 * M_PI / (4.0 * dt);
            const double c = -0.9 + 1.8 * u(rng);
            const double theta0 = std::asin(c) - w * tStar;
            g = [=](double t) { return std::sin(theta0 + w * t) - c; };
            break;
        }
        case 2: {
            const double tau = dt * (0.05 + 4.0 * u(rng));
            const double v0 = -1.0 - u(rng);
            const double thr = v0 * std::exp(-tStar / tau);
            g = [=](double t) { return v0 * std::exp(-t / tau) - thr; };
            break;
        }
        case 3: {
            const double big = 1.0 + 9.0 * u(rng);
            const double slope = std::pow(10.0, -2.0 + 5.0 * u(rng));
            const double thr = big + slope * tStar;
            g = [=](double t) { return (big + slope * t) - thr; };
            break;
        }
        default: {
            g = [=](double t) { return (t - tStar) * 1e9; };
            const double at = tStar - kTol * 40.0 * u(rng);
            if (u(rng) < 0.5) {
                glitchLo = at;
                glitchHi = at + kTol * 8.0 * u(rng);
            } else {
                failLo = at;
                failHi = at + kTol * 8.0 * u(rng);
            }
            break;
        }
        }
        const double g0 = g(0.0);
        const double g1 = g(dt);
        if (!(g0 < 0.0 && g1 >= 0.0)) {
            continue;
        }
        auto logged = [&](std::vector<double>& times) {
            return [&, g](double t) {
                times.push_back(t);
                if (t >= failLo && t <= failHi) {
                    return CrossingProbe{};
                }
                const double v = g(t);
                return CrossingProbe{true, v >= 0.0 || (t >= glitchLo && t <= glitchHi), v};
            };
        };
        std::vector<double> refTimes;
        std::vector<double> times;
        const CrossingBracket ref = replayAfterEveryProbe(dt, g0, g1, kTol, logged(refTimes));
        const CrossingBracket got = locateCrossing(dt, g0, g1, kTol, logged(times));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.lo), std::bit_cast<std::uint64_t>(ref.lo))
            << "case " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.hi), std::bit_cast<std::uint64_t>(ref.hi))
            << "case " << i;
        ASSERT_EQ(got.fellBack, ref.fellBack) << "case " << i;
        ASSERT_EQ(times, refTimes) << "case " << i;
        ++cases;
        verified += !got.fellBack && !times.empty() ? 1 : 0;
        fellBack += got.fellBack ? 1 : 0;
    }
    EXPECT_GT(cases, 90000);
    EXPECT_GT(verified, 50000); // verified by a probe that answered as predicted
    EXPECT_GT(fellBack, 1000);  // glitches and failed probes
}

TEST(CrossingLocator, GlitchFallsBackToValidBracket)
{
    // A linear g puts the estimate exactly on the bisection's bracket; a
    // glitch makes the predicate cross just below it while g stays negative
    // (as when a second monitor fires first). The prediction cannot verify.
    const double dt = 0.8e-9;
    const double tStar = 0.3137e-9;
    auto g = [=](double t) { return (t - tStar) * 1e9; };
    int calls = 0;
    double lastCrossed = dt;
    const auto [cleanLo, cleanHi] =
        referenceBisection(dt, kTol, analyticProbe(g, calls, lastCrossed));
    const double glitchLo = cleanLo - 6 * kTol;
    auto crossed = [&](double t) { return g(t) >= 0.0 || (t >= glitchLo && t <= cleanLo); };
    auto probe = [&](double t) { return CrossingProbe{true, crossed(t), g(t)}; };

    const CrossingBracket got = locateCrossing(dt, g(0.0), g(dt), kTol, probe);
    EXPECT_TRUE(got.fellBack);
    EXPECT_TRUE(got.lo == 0.0 || !crossed(got.lo));
    EXPECT_TRUE(crossed(got.hi));
    EXPECT_LE(got.hi - got.lo, kTol);
    EXPECT_LT(got.hi, cleanHi); // the glitch is the earliest crossing found
    const auto [refLo, refHi] = referenceBisection(dt, kTol, probe);
    EXPECT_EQ(got.lo, refLo);
    EXPECT_EQ(got.hi, refHi);
}

TEST(CrossingLocator, FailedProbeStopsAndKeepsHi)
{
    // Trial solves within 1 ps of the crossing fail: the locator's first
    // probe fails, and the bisection fallback stops refining where the
    // reference does, keeping its hi.
    const double dt = 1e-9;
    auto g = [](double t) { return (t - 0.3e-9) * 1e9; };
    auto probe = [&](double t) {
        return std::fabs(t - 0.3e-9) < 1e-12 ? CrossingProbe{}
                                              : CrossingProbe{true, g(t) >= 0.0, g(t)};
    };
    const CrossingBracket got = locateCrossing(dt, g(0.0), g(dt), kTol, probe);
    const auto [lo, hi] = referenceBisection(dt, kTol, probe);
    EXPECT_TRUE(got.fellBack);
    EXPECT_EQ(got.lo, lo);
    EXPECT_EQ(got.hi, hi);
    EXPECT_GT(hi - lo, kTol); // stopped before the tolerance
    EXPECT_GE(hi, 0.3e-9);
}

TEST(CrossingLocator, SolverCountsFallbackWhenAnotherMonitorCrossesFirst)
{
    // One 1 us step holds two rising crossings: a linear ramp at 0.5 us and a
    // concave sqrt ramp at 0.36 us. The sqrt chord puts its crossing at
    // 0.6 us, so the ramp is tracked; the sqrt monitor's earlier crossing
    // contradicts the estimate and the bisection finds it.
    AnalogSystem sys;
    const NodeId lin = sys.node("lin");
    const NodeId sq = sys.node("sq");
    auto& vLin = sys.add<VoltageSource>(sys, "Vlin", lin, kGround, 0.0);
    auto& vSq = sys.add<VoltageSource>(sys, "Vsq", sq, kGround, 0.0);
    sys.add<Resistor>(sys, "Rlin", lin, kGround, 1e3);
    sys.add<Resistor>(sys, "Rsq", sq, kGround, 1e3);
    TimeFunction ramp;
    ramp.value = [](double t) { return t / 1e-6; };
    vLin.setFunction(std::move(ramp));
    TimeFunction root;
    root.value = [](double t) { return std::sqrt(t / 1e-6); };
    vSq.setFunction(std::move(root));

    SolverOptions opt;
    opt.dtInitial = 1e-6;
    TransientSolver solver(sys, opt);
    double tLin = -1.0;
    double tSq = -1.0;
    solver.addMonitor(lin, 0.5, CrossingMonitor::Edge::Rising,
                      [&](double t, bool) { tLin = t; });
    solver.addMonitor(sq, 0.6, CrossingMonitor::Edge::Rising, [&](double t, bool) { tSq = t; });
    const double reached = solver.advanceTo(1e-6);
    EXPECT_NEAR(reached, 0.36e-6, 1e-14);
    EXPECT_NEAR(tSq, 0.36e-6, 1e-14);
    EXPECT_EQ(tLin, -1.0);
    EXPECT_EQ(solver.stats().crossingFallbacks, 1u);
    EXPECT_EQ(solver.stats().crossingsLocated, 1u);
}

} // namespace
} // namespace gfi::analog
