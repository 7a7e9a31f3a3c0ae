#pragma once
// In-memory span log of the traced benchmark run. The benchmark opens one
// span around each call it makes into a layer's public entry point, and
// imports the spans the campaign runner already emits through its telemetry
// sink (preflight, golden, collapse, batch, per-run build/restore/simulate/
// classify). Spans stay in memory until the run ends, then are written out
// with a per-layer self-time table.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace gfi::perfbench {

struct Span {
    std::string name;
    std::string layer;
    double startUs = 0.0; ///< microseconds since the log was created
    double endUs = 0.0;
    int parent = -1;      ///< index of the parent span, -1 = root
    int track = 0;        ///< 0 = benchmark thread; imported worker tracks follow
};

class SpanLog {
public:
    using Clock = std::chrono::steady_clock;

    SpanLog() : epoch_(Clock::now()) {}

    /// Microseconds of @p t since the log's epoch.
    [[nodiscard]] double micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }

    /// Opens a span on the benchmark thread, nested in the innermost open one.
    int open(std::string name, std::string layer);
    void close(int id);

    /// RAII wrapper around open()/close(); a null log records nothing.
    class Scope {
    public:
        Scope(SpanLog* log, std::string name, std::string layer)
            : log_(log), id_(log != nullptr ? log->open(std::move(name), std::move(layer)) : -1)
        {
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope()
        {
            if (log_ != nullptr) {
                log_->close(id_);
            }
        }
        [[nodiscard]] int id() const noexcept { return id_; }

    private:
        SpanLog* log_;
        int id_;
    };

    /// Imports the complete ("X") events of a runner trace (Chrome trace JSON
    /// from obs::TraceWriter::json()). @p writerEpoch is when that writer was
    /// created; @p layerOf maps an event name to its layer. Each imported
    /// span's parent is the innermost imported span enclosing it on the same
    /// track, else @p parent.
    void importRunnerTrace(const std::string& traceJson, Clock::time_point writerEpoch,
                           int parent, const std::map<std::string, std::string>& layerOf);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Durations (ms) of every span named @p name.
    [[nodiscard]] std::vector<double> durationsMs(const std::string& name) const;

    /// Summed duration (s) of every span named @p name.
    [[nodiscard]] double totalSeconds(const std::string& name) const;

    /// Self time per layer, in seconds: each span's duration minus the part
    /// of its interval covered by its children.
    [[nodiscard]] std::map<std::string, double> selfSeconds() const;

    /// The whole log as JSON: spans plus the self-time table.
    [[nodiscard]] std::string json(const std::string& metaJson) const;

private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open benchmark-thread spans
    int nextTrack_ = 1;
};

} // namespace gfi::perfbench
