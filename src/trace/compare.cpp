#include "trace/compare.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace gfi::trace {

DigitalDiff compareDigital(const DigitalTrace& golden, const DigitalTrace& test, SimTime tEnd,
                           SimTime minWindow, std::optional<std::size_t> shared)
{
    // Walk the merged timeline {0, tEnd} + both event lists, each point once,
    // in ascending order up to tEnd. Both lists are recorded in time order,
    // so this is a linear merge: the cursors consume every event at or
    // before the current point, and the next point is the smallest event
    // time after it, or tEnd (which also skips duplicate timestamps).
    //
    // A forked test trace equals golden's up to its last shared event, so
    // both cursors start past the shared events, both values at golden's
    // value after them, and no window open. Every point before the first
    // unshared event finds the two values equal, as the full merge does.
    const auto& ge = golden.events;
    const auto& te = test.events;
    std::size_t gi = shared.value_or(0);
    std::size_t ti = 0;
    digital::Logic gv = gi > 0 ? ge[gi - 1].second : golden.initial;
    digital::Logic tv = shared ? gv : test.initial;

    std::vector<std::pair<SimTime, SimTime>> windows;
    bool inMismatch = false;
    SimTime windowStart = 0;
    SimTime t = 0;
    for (;;) {
        while (gi < ge.size() && ge[gi].first <= t) {
            gv = ge[gi++].second;
        }
        while (ti < te.size() && te[ti].first <= t) {
            tv = te[ti++].second;
        }
        const bool differs = digital::toX01(gv) != digital::toX01(tv);
        if (differs && !inMismatch) {
            inMismatch = true;
            windowStart = t;
        } else if (!differs && inMismatch) {
            inMismatch = false;
            windows.emplace_back(windowStart, t);
        }
        if (t >= tEnd) {
            break;
        }
        SimTime next = tEnd;
        if (gi < ge.size()) {
            next = std::min(next, ge[gi].first);
        }
        if (ti < te.size()) {
            next = std::min(next, te[ti].first);
        }
        t = next;
    }
    if (inMismatch) {
        windows.emplace_back(windowStart, tEnd);
    }
    return summarizeMismatch(std::move(windows), minWindow);
}

DigitalDiff summarizeMismatch(std::vector<std::pair<SimTime, SimTime>> windows,
                              SimTime minWindow)
{
    DigitalDiff diff;
    diff.mismatchWindows = std::move(windows);
    if (minWindow > 0) {
        // Uniform filter: a window narrower than the jitter tolerance is not
        // a functional error even when it is cut short by the end of the
        // observation (a sub-tolerance edge offset straddling tEnd).
        std::erase_if(diff.mismatchWindows, [&](const std::pair<SimTime, SimTime>& w) {
            return w.second - w.first < minWindow;
        });
    }
    if (!diff.mismatchWindows.empty()) {
        diff.firstMismatch = diff.mismatchWindows.front().first;
        diff.lastMismatchEnd = diff.mismatchWindows.back().second;
        for (const auto& [a, b] : diff.mismatchWindows) {
            diff.totalMismatch += b - a;
        }
    }
    return diff;
}

namespace {

using Sample = std::pair<double, double>;

/// AnalogTrace::valueAt's interpolation at @p t between @p a and the next
/// sample @p b (b's value when the two share a timestamp).
double interpolate(const Sample& a, const Sample& b, double t)
{
    const auto& [t0, v0] = a;
    const auto& [t1, v1] = b;
    if (t1 <= t0) {
        return v1;
    }
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

/// AnalogTrace::valueAt(t) for a sample list whose first sample at or after
/// @p t is s[i] (the merge cursor's position), without the binary search.
double valueAtCursor(const std::vector<Sample>& s, std::size_t i, double t)
{
    if (s.empty()) {
        return 0.0;
    }
    if (t <= s.front().first) {
        return s.front().second;
    }
    if (t >= s.back().first) {
        return s.back().second;
    }
    return interpolate(s[i - 1], s[i], t);
}

/// The deviation bookkeeping of compareAnalog, fed each merged point in
/// ascending order.
struct DeviationScan {
    double absTol;
    double relTol;
    AnalogDiff diff;
    bool outside = false;
    double outsideStart = 0.0;

    void point(double t, double g, double test)
    {
        const double dev = std::fabs(test - g);
        if (dev > diff.maxDeviation) {
            diff.maxDeviation = dev;
            diff.tMaxDeviation = t;
        }
        const bool exceeds = dev > absTol + relTol * std::fabs(g);
        if (exceeds) {
            if (diff.firstExceed < 0.0) {
                diff.firstExceed = t;
            }
            diff.lastExceed = t;
            if (!outside) {
                outside = true;
                outsideStart = t;
            }
        } else if (outside) {
            outside = false;
            diff.timeOutsideTol += t - outsideStart;
        }
    }

    /// The result once @p tLast was the last point.
    AnalogDiff finish(double tLast)
    {
        if (outside) {
            diff.timeOutsideTol += tLast - outsideStart;
            diff.withinTolAtEnd = false;
        }
        return diff;
    }
};

} // namespace

AnalogDiff compareAnalog(const AnalogTrace& golden, const AnalogTrace& test, double absTol,
                         double relTol, std::size_t shared)
{
    // Walk the union of both sample timelines, each point once, in
    // ascending order. Both lists are recorded in time order, so this is a
    // linear two-cursor merge: at each point the cursors sit on the first
    // sample at or after it, then skip every sample at it.
    const auto& gs = golden.samples;
    const auto& ts = test.samples;
    std::size_t gi = 0;
    std::size_t ti = 0;
    DeviationScan scan{absTol, relTol, {}};
    double t = 0.0;
    if (shared > 0) {
        // Forked: the test trace is gs[0, shared) + ts. Every point before
        // the last shared sample's time tau deviates by 0 and leaves the scan
        // as it started. From tau up to ts's first sample the test's value
        // still reads the shared prefix: at tau its cursor sits in it, after
        // tau it interpolates from gs[shared - 1] to ts.front(). Its last
        // sample is ts.back(), or gs[shared - 1] for an empty suffix.
        const Sample& last = gs[shared - 1];
        const Sample& testBack = ts.empty() ? last : ts.back();
        gi = static_cast<std::size_t>(
            std::lower_bound(gs.begin(), gs.begin() + static_cast<std::ptrdiff_t>(shared),
                             last.first,
                             [](const Sample& s, double time) { return s.first < time; }) -
            gs.begin());
        const std::size_t atTau = gi;
        while (ti == 0 && (gi < gs.size() || !ts.empty())) {
            t = ts.empty() || (gi < gs.size() && gs[gi].first <= ts[0].first) ? gs[gi].first
                                                                              : ts[0].first;
            double tv = 0.0;
            if (t <= gs.front().first) {
                tv = gs.front().second;
            } else if (t >= testBack.first) {
                tv = testBack.second;
            } else if (t == last.first) {
                tv = interpolate(gs[atTau - 1], gs[atTau], t);
            } else {
                tv = interpolate(last, ts.front(), t);
            }
            const double g = valueAtCursor(gs, gi, t);
            while (gi < gs.size() && gs[gi].first == t) {
                ++gi;
            }
            while (ti < ts.size() && ts[ti].first == t) {
                ++ti;
            }
            scan.point(t, g, tv);
        }
    }
    while (gi < gs.size() || ti < ts.size()) {
        t = ti == ts.size() || (gi < gs.size() && gs[gi].first <= ts[ti].first)
                ? gs[gi].first
                : ts[ti].first;
        const double g = valueAtCursor(gs, gi, t);
        const double tv = valueAtCursor(ts, ti, t);
        while (gi < gs.size() && gs[gi].first == t) {
            ++gi;
        }
        while (ti < ts.size() && ts[ti].first == t) {
            ++ti;
        }
        scan.point(t, g, tv);
    }
    return scan.finish(t);
}

} // namespace gfi::trace
