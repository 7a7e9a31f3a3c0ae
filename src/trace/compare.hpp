#pragma once
// Trace comparison: exact for digital signals, tolerance-based for analog
// nodes (the paper notes analog monitoring "may need an additional tolerance
// on the values to avoid non-significant error identifications" — Section 4.1).

#include "trace/trace.hpp"

#include <cstddef>
#include <optional>

namespace gfi::trace {

/// Result of comparing two digital traces.
struct DigitalDiff {
    /// Half-open windows [start, end) where the values differ (normalized to
    /// X01, so X vs 0 counts as a mismatch).
    std::vector<std::pair<SimTime, SimTime>> mismatchWindows;
    SimTime firstMismatch = -1;  ///< start of the first window, -1 if none
    SimTime lastMismatchEnd = -1;///< end of the last window, -1 if none
    SimTime totalMismatch = 0;   ///< accumulated mismatch duration

    [[nodiscard]] bool identical() const noexcept { return mismatchWindows.empty(); }

    /// True when the traces agree at (and after the last event before) @p t.
    /// A window that extends to exactly @p t means the traces were still
    /// diverged when observation stopped — that is NOT a recovery.
    [[nodiscard]] bool matchesAt(SimTime t) const noexcept
    {
        return mismatchWindows.empty() || mismatchWindows.back().second < t;
    }
};

/// The DigitalDiff of raw mismatch windows @p windows (ascending, as a
/// timeline walk closes them): windows narrower than @p minWindow are
/// discarded, then the first/last/total summary is taken over the rest.
/// compareDigital ends in it, and so does every producer of windows that
/// bypasses the trace walk (the batch backend's word-level lane diffs).
[[nodiscard]] DigitalDiff summarizeMismatch(std::vector<std::pair<SimTime, SimTime>> windows,
                                            SimTime minWindow);

/// Compares two digital traces over [0, tEnd]. Event times must be
/// non-negative and non-decreasing, as recorded; tEnd >= 0. Mismatch windows
/// shorter than @p minWindow are discarded: this is the digital counterpart
/// of the analog tolerance — edge jitter below the threshold (e.g. sub-ps
/// clock wobble while a PLL relocks) is not a functional error.
///
/// @p shared describes a test trace forked from golden: the test run's trace
/// is golden's initial value and first *shared events, followed by
/// test.events (whose times must not precede the last shared event's), and
/// only that suffix is stored; test.initial is not read. Both cursors start
/// past the shared events: the traces agree over them, so no mismatch window
/// opens there. Unset (the default), @p test holds its whole trace.
[[nodiscard]] DigitalDiff compareDigital(const DigitalTrace& golden, const DigitalTrace& test,
                                         SimTime tEnd, SimTime minWindow = 0,
                                         std::optional<std::size_t> shared = std::nullopt);

/// Result of comparing two analog traces.
struct AnalogDiff {
    double maxDeviation = 0.0;    ///< max |test - golden| (volts)
    double tMaxDeviation = 0.0;   ///< time of the maximum deviation
    double firstExceed = -1.0;    ///< first time the tolerance was exceeded, -1 if never
    double lastExceed = -1.0;     ///< last time the tolerance was exceeded
    double timeOutsideTol = 0.0;  ///< accumulated time outside tolerance (seconds)
    bool withinTolAtEnd = true;   ///< back inside tolerance at the end of the run

    [[nodiscard]] bool withinTolerance() const noexcept { return firstExceed < 0.0; }
};

/// Compares two analog traces on the union of their sample points, each
/// trace interpolated as AnalogTrace::valueAt does. Sample times must be
/// non-decreasing, as recorded: the Recorder appends at accepted solver
/// steps. A point deviates when |test - golden| > absTol + relTol * |golden|
/// (absTol, relTol >= 0).
///
/// The test run's trace is golden's first @p shared samples followed by
/// test.samples, whose times must not precede the last shared sample's; a
/// run forked from a golden checkpoint stores only that suffix. Every point
/// before the last shared sample deviates by 0, so the merge starts there;
/// the suffix's first sample interpolates from golden[shared - 1]. With
/// @p shared = 0, @p test holds its whole trace.
[[nodiscard]] AnalogDiff compareAnalog(const AnalogTrace& golden, const AnalogTrace& test,
                                       double absTol, double relTol = 0.0,
                                       std::size_t shared = 0);

} // namespace gfi::trace
