#pragma once
// Bench regression comparison: parses the repo's BENCH_*.json artifacts
// (either shape — the google-benchmark tee {"tool": ..., "benchmarks": [...]}
// or the single-object {"benchmark": "perf_x", ...} summaries), checks the
// shared metadata blocks for comparability (schema / tool / build type /
// worker count — apples-to-oranges comparisons are refused, not warned away),
// and classifies each shared numeric metric as regression / improvement /
// stable against a relative threshold.
//
// Metric direction is inferred from the key name: throughput-like keys
// (*_per_s, *per_second, speedup*) are higher-is-better; duration-like keys
// (*_s, *_ms, *_seconds, wall_ms) and work rates per simulated µs (*_per_us)
// are lower-is-better; anything else (counts, booleans, identifiers) is
// ignored for regression purposes.

#include <string>
#include <utility>
#include <vector>

namespace gfi::obs {

/// The shared metadata block bench emitters stamp into every BENCH_*.json.
struct BenchMeta {
    bool present = false;   ///< a "meta" object existed in the document
    long long schema = 0;   ///< metadata schema version
    std::string tool;       ///< emitting benchmark tool
    std::string gitSha;     ///< source revision (informational)
    std::string buildType;  ///< CMAKE_BUILD_TYPE of the binary
    long long workers = -1; ///< configured worker count (0 = auto)
    std::string timestamp;  ///< build timestamp (informational)
};

/// One named benchmark with its numeric metrics, document order.
struct BenchSample {
    std::string name;
    std::vector<std::pair<std::string, double>> values;

    [[nodiscard]] const double* value(const std::string& key) const;
};

/// One parsed BENCH_*.json document.
struct BenchSet {
    std::string source; ///< file name / label for messages
    BenchMeta meta;
    std::vector<BenchSample> samples;

    [[nodiscard]] const BenchSample* sample(const std::string& name) const;
};

/// Parses either BENCH document shape. Throws std::runtime_error on
/// malformed JSON or an unrecognized document layout.
[[nodiscard]] BenchSet parseBenchSet(const std::string& jsonText, std::string source);

/// How a metric key is judged.
enum class MetricDirection {
    HigherIsBetter, ///< throughput, speedup
    LowerIsBetter,  ///< durations
    Ignore,         ///< counts, flags — compared for presence only
};
[[nodiscard]] MetricDirection metricDirection(const std::string& key);

/// One compared metric of one sample.
struct BenchDelta {
    std::string sample;
    std::string metric;
    double baseline = 0.0;
    double current = 0.0;
    double worseBy = 0.0; ///< relative change in the "worse" direction
                          ///< (positive = regressed, negative = improved)
    bool regression = false;
    bool improvement = false;
};

/// Result of comparing two BenchSets.
struct BenchComparison {
    std::vector<std::string> incompatibilities; ///< non-empty = refused
    std::vector<std::string> warnings;          ///< informational notes
    std::vector<BenchDelta> deltas;             ///< per shared metric

    [[nodiscard]] bool refused() const noexcept { return !incompatibilities.empty(); }
    [[nodiscard]] std::size_t regressions() const;

    /// Printable comparison table plus notes.
    [[nodiscard]] std::string table() const;
};

/// Compares @p current against @p baseline. @p threshold is the relative
/// change (e.g. 0.20 = 20%) beyond which a metric counts as regressed or
/// improved. Metadata mismatches (schema/tool/build type/workers) refuse the
/// comparison; differing git SHAs and missing metadata only warn.
[[nodiscard]] BenchComparison compareBenchSets(const BenchSet& baseline,
                                               const BenchSet& current, double threshold);

} // namespace gfi::obs
