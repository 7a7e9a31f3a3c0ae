#pragma once
// Threshold-crossing location inside one solver step.
//
// When a monitor crosses inside the step [0, dt], the solver cuts the step at
// the `hi` end of the bracket that bisection on the crossing predicate
// reaches (hi - lo <= tol), and the cut state is a solve at exactly that
// `hi`. Bisection pays one solve per halving: ~20 for a 1 ns step at 1 fs.
// That bracket depends only on the predicate's answers at the bisection
// midpoints, so locateCrossing predicts the answers and solves only at the
// ends of the predicted bracket:
//
//  1. Estimate. Illinois (modified regula falsi) on g(t), the tracked
//     monitor's signed distance past its threshold (g < 0 before the
//     crossing, g >= 0 from it on). Its bracket is the verified bracket
//     [vLo, vHi]: the latest probe that did not cross and the latest that
//     did, by the same any-monitor predicate the bisection uses.
//  2. Replay. The bisection's own arithmetic with no solves: each midpoint
//     at or above vHi crosses, at or below vLo does not, and in between the
//     estimate decides.
//  3. Verify. The replayed hi must be vHi (it crossed) and the replayed lo at
//     or below vLo (it did not). Otherwise probe the unverified end: the
//     probe is the next Illinois trial point, it tightens [vLo, vHi], and
//     steps 1-3 run again, except that a probe answering as predicted
//     verifies the bracket without a second replay. For a predicate that is
//     monotone in t a verified bracket agrees with every replayed decision,
//     so it is the bisection's, bit for bit.
//  4. Fall back. After kCrossingProbes probes, on a failed probe, or when a
//     probe's answer disagrees with the sign of its g (another monitor or a
//     glitch crossed), the bisection runs itself and its bracket is returned.
//
// A crossing within tol of a step end, the common case in the PLL (the VCO's
// half period is a whole number of its bounded steps), costs one probe and
// one replay; an interior one on a smooth trace four to six probes.

namespace gfi::analog {

/// One trial solve of a crossing step, cut at time t into the step.
struct CrossingProbe {
    bool ok = false;      ///< the trial solve succeeded
    bool crossed = false; ///< some monitor crossed within [0, t]
    double g = 0.0;       ///< tracked monitor's distance past its threshold
};

/// The located crossing: the step is cut at hi.
struct CrossingBracket {
    double lo = 0.0;
    double hi = 0.0;
    bool fellBack = false; ///< the prediction did not verify; bisection ran
};

/// Probes the prediction may spend before the bisection fallback.
inline constexpr int kCrossingProbes = 12;

/// Locates the crossing in the step [0, dt] whose ends have tracked-monitor
/// distances @p g0 < 0 <= @p g1. @p probe(t), 0 < t < dt, returns a
/// CrossingProbe. On return hi is dt or the time of the most recent probe
/// that reported crossed, so the caller can keep that probe's state as the
/// cut state. Returns the bracket bisection to @p tol reaches; for a
/// predicate that is not monotone in t, a bracket with a not-crossed (or 0)
/// lo and a crossed hi.
template <class Probe>
CrossingBracket locateCrossing(double dt, double g0, double g1, double tol, Probe&& probe)
{
    double vLo = 0.0;
    double gLo = g0;
    double vHi = dt;
    double gHi = g1;
    int kept = 0; // Illinois: -1 = vLo survived the last update, +1 = vHi did

    // Folds one probe at t in (vLo, vHi) into the bracket; false when its
    // answer contradicts its own g.
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
        // Verified when hi is the latest crossed probe (or dt) and lo the
        // latest not-crossed one (or at or below it); else probe the
        // unverified end and estimate again.
        double t = hi;
        if (hi >= vHi) {
            if (lo <= vLo) {
                return {lo, hi, false};
            }
            t = lo;
        }
        if (probes == kCrossingProbes) {
            break;
        }
        const CrossingProbe p = probe(t);
        if (!record(t, p)) {
            break;
        }
        // A probe that answers as predicted leaves every replayed decision
        // standing: the midpoints that crossed lie at or above hi, those that
        // did not at or below lo. Once the probe makes hi the latest crossed
        // probe (or dt) and lo at or below the latest not-crossed one, the
        // next replay would retrace the same path and verify it.
        if (p.crossed ? t == hi && lo <= vLo : t == lo) {
            return {lo, hi, false};
        }
    }

    // Bisect on "earliest crossing inside [0, mid]".
    double lo = 0.0;
    double hi = dt;
    while (hi - lo > tol) {
        const double mid = 0.5 * (lo + hi);
        const CrossingProbe p = probe(mid);
        if (!p.ok) {
            break; // give up refining; use hi
        }
        if (p.crossed) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return {lo, hi, true};
}

} // namespace gfi::analog
