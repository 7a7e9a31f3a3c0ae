#include "trace/compare.hpp"

#include <algorithm>
#include <cmath>

namespace gfi::trace {

DigitalDiff compareDigital(const DigitalTrace& golden, const DigitalTrace& test, SimTime tEnd,
                           SimTime minWindow)
{
    // Walk the merged timeline {0, tEnd} + both event lists, each point once,
    // in ascending order up to tEnd. Both lists are recorded in time order,
    // so this is a linear merge: the cursors consume every event at or
    // before the current point, and the next point is the smallest event
    // time after it, or tEnd (which also skips duplicate timestamps).
    const auto& ge = golden.events;
    const auto& te = test.events;
    std::size_t gi = 0;
    std::size_t ti = 0;
    digital::Logic gv = golden.initial;
    digital::Logic tv = test.initial;

    DigitalDiff diff;
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
            diff.mismatchWindows.emplace_back(windowStart, t);
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
        diff.mismatchWindows.emplace_back(windowStart, tEnd);
    }
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

/// AnalogTrace::valueAt(t) for a sample list whose first sample at or after
/// @p t is s[i] (the merge cursor's position), without the binary search.
double valueAtCursor(const std::vector<std::pair<double, double>>& s, std::size_t i, double t)
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
    const auto& [t1, v1] = s[i];
    const auto& [t0, v0] = s[i - 1];
    if (t1 <= t0) {
        return v1;
    }
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

} // namespace

AnalogDiff compareAnalog(const AnalogTrace& golden, const AnalogTrace& test, double absTol,
                         double relTol)
{
    // Walk the union of both sample timelines, each point once, in
    // ascending order. Both lists are recorded in time order, so this is a
    // linear two-cursor merge: at each point the cursors sit on the first
    // sample at or after it, then skip every sample at it.
    const auto& gs = golden.samples;
    const auto& ts = test.samples;
    std::size_t gi = 0;
    std::size_t ti = 0;

    AnalogDiff diff;
    bool outside = false;
    double outsideStart = 0.0;
    double t = 0.0;
    while (gi < gs.size() || ti < ts.size()) {
        t = ti == ts.size() || (gi < gs.size() && gs[gi].first <= ts[ti].first)
                ? gs[gi].first
                : ts[ti].first;
        const double g = valueAtCursor(gs, gi, t);
        const double dev = std::fabs(valueAtCursor(ts, ti, t) - g);
        while (gi < gs.size() && gs[gi].first == t) {
            ++gi;
        }
        while (ti < ts.size() && ts[ti].first == t) {
            ++ti;
        }
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
    if (outside) {
        diff.timeOutsideTol += t - outsideStart;
        diff.withinTolAtEnd = false;
    }
    return diff;
}

} // namespace gfi::trace
