#pragma once
// Trace capture: digital event traces and analog sampled waveforms.
//
// The paper's flow runs the injection campaign, collects "results (traces)"
// and feeds them to the analysis step. Recorder attaches to a MixedSimulator
// and records selected digital signals (every event) and analog nodes (every
// accepted solver step), producing the traces the classifier compares.

#include "ams/mixed_sim.hpp"

#include <map>
#include <string>
#include <vector>

namespace gfi::trace {

/// Event-based value history of one digital signal.
struct DigitalTrace {
    std::string name;
    digital::Logic initial = digital::Logic::U;
    std::vector<std::pair<SimTime, digital::Logic>> events;

    /// Value at time @p t (the last event at or before @p t, else initial).
    [[nodiscard]] digital::Logic valueAt(SimTime t) const;

    /// Times of 0 -> 1 transitions.
    [[nodiscard]] std::vector<SimTime> risingEdges() const;
};

/// Sampled waveform of one analog node.
struct AnalogTrace {
    std::string name;
    std::vector<std::pair<double, double>> samples; // (seconds, volts)

    /// Linearly interpolated value at @p t (clamped to the sample range).
    [[nodiscard]] double valueAt(double t) const;

    /// Minimum / maximum sample value over [t0, t1] (full range by default).
    [[nodiscard]] std::pair<double, double> minmax(double t0 = -1e30, double t1 = 1e30) const;
};

/// Attaches probes to a simulator and owns the recorded traces.
class Recorder {
public:
    explicit Recorder(ams::MixedSimulator& sim) : sim_(&sim) {}
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// Records every event of the named digital signal.
    void recordDigital(const std::string& signalName);

    /// Records the named analog node at every accepted solver step.
    void recordAnalog(const std::string& nodeName);

    /// Back to the construction state: every digital trace holds only the
    /// initial value its signal had when recording began, every analog trace
    /// is empty. Call right after MixedSimulator::restoreSnapshot() when a
    /// used testbench is re-run (a reset plus a pre-start restore leaves the
    /// recorder exactly as a freshly built testbench's). After a restore from
    /// a golden checkpoint the recorder then holds only the resumed run's
    /// suffix; compareDigital/compareAnalog read it as continuing golden's
    /// traces up to the checkpoint.
    void reset();

    /// Appends to every trace the events (samples) of @p golden's trace of
    /// the same name that come after @p after: the suffix a convergence exit
    /// at @p after skipped (ams::MixedSimulator::armConvergence), so the
    /// traces read as if the run had simulated it. @p golden records the
    /// same signals and nodes.
    void appendSuffix(const Recorder& golden, SimTime after);

    /// Recorded digital trace (throws std::out_of_range if not recorded).
    [[nodiscard]] const DigitalTrace& digitalTrace(const std::string& name) const;

    /// Recorded analog trace (throws std::out_of_range if not recorded).
    [[nodiscard]] const AnalogTrace& analogTrace(const std::string& name) const;

    /// All recorded digital traces, by name.
    [[nodiscard]] const std::map<std::string, DigitalTrace>& digitalTraces() const noexcept
    {
        return digital_;
    }

    /// All recorded analog traces, by name.
    [[nodiscard]] const std::map<std::string, AnalogTrace>& analogTraces() const noexcept
    {
        return analog_;
    }

private:
    ams::MixedSimulator* sim_;
    std::map<std::string, DigitalTrace> digital_;
    /// Each digital trace with its initial value as recorded at construction.
    std::vector<std::pair<DigitalTrace*, digital::Logic>> constructionInitial_;
    std::map<std::string, AnalogTrace> analog_;
};

/// Writes traces as CSV: one time column per domain plus one column per trace.
void writeAnalogCsv(const std::string& path, const std::vector<const AnalogTrace*>& traces);

/// Writes a (simple, two-state + X/Z) VCD file from digital traces and analog
/// traces (emitted as VCD real variables). Variables get identifier codes of
/// printable characters ('!'..'~'): one character for the first 94, then two.
void writeVcd(const std::string& path, const std::vector<const DigitalTrace*>& digitalTraces,
              const std::vector<const AnalogTrace*>& analogTraces);

} // namespace gfi::trace
