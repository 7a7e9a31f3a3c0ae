#pragma once
// Telemetry facade: one object bundling the metrics registry and the Chrome
// trace writer, each written to the file its path setter names.
//
// Zero overhead when disabled is the design contract: every instrumentation
// site is guarded by a null/flag check (Span construction on a null Telemetry
// is two pointer tests and no allocation), so a campaign without telemetry
// attached executes the exact code paths of the pre-observability engine and
// produces byte-identical journals, reports and summaries.

#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"

#include <memory>
#include <string>

namespace gfi::obs {

class Telemetry {
public:
    Telemetry() = default;

    /// The metrics registry (always available; dumped only with a path set).
    [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
    [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

    /// Enables span collection (idempotent). Spans emitted before this call
    /// are dropped by construction (null writer).
    void enableTracing()
    {
        if (!trace_) {
            trace_ = std::make_unique<TraceWriter>();
        }
    }

    /// The trace writer, or nullptr when tracing is disabled.
    [[nodiscard]] TraceWriter* trace() noexcept { return trace_.get(); }

    /// Output paths; empty = do not write that artifact in flush(). A trace
    /// path enables span collection; the metrics dump is Prometheus text, or
    /// JSON when its path ends in ".json".
    void setTracePath(std::string path)
    {
        tracePath_ = std::move(path);
        if (!tracePath_.empty()) {
            enableTracing();
        }
    }
    void setMetricsPath(std::string path) { metricsPath_ = std::move(path); }
    [[nodiscard]] const std::string& tracePath() const noexcept { return tracePath_; }
    [[nodiscard]] const std::string& metricsPath() const noexcept { return metricsPath_; }

    /// Writes the configured artifacts: the trace JSON and the metrics dump.
    /// Safe to call repeatedly (each call rewrites the files).
    void flush() const;

private:
    MetricsRegistry metrics_;
    std::unique_ptr<TraceWriter> trace_;
    std::string tracePath_;
    std::string metricsPath_;
};

/// RAII scoped span: emits one Chrome-trace complete event covering its
/// lifetime, on the calling thread's track. Nesting spans on one thread
/// renders as a flame stack. Constructing a span on a null Telemetry or one
/// without tracing enabled is a no-op.
class Span {
public:
    Span(Telemetry* telemetry, std::string name, const char* category)
        : writer_(telemetry != nullptr ? telemetry->trace() : nullptr),
          name_(std::move(name)), category_(category)
    {
        if (writer_ != nullptr) {
            startUs_ = writer_->nowMicros();
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attaches a JSON object body ("{...}") shown in the trace viewer's
    /// argument pane (e.g. the fault description, the outcome).
    void setArgs(std::string argsJson)
    {
        if (writer_ != nullptr) {
            args_ = std::move(argsJson);
        }
    }

    ~Span()
    {
        if (writer_ != nullptr) {
            writer_->completeEvent(name_, category_, startUs_, writer_->nowMicros() - startUs_,
                                   args_);
        }
    }

private:
    TraceWriter* writer_;
    std::string name_;
    const char* category_;
    std::string args_;
    double startUs_ = 0.0;
};

} // namespace gfi::obs
