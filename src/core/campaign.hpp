#pragma once
// Campaign engine: runs a golden reference plus one simulation per fault,
// compares traces and classifies each fault's effect — the "fault injection
// set-up -> simulation -> results analysis -> failure report/classification"
// pipeline of the paper's Figures 2 and 3.
//
// Fault-tolerant execution: by construction many injected runs are
// pathological (a current pulse can diverge the analog solver, a mutated FSM
// can oscillate the delta-cycle engine), so each run executes inside a
// containment boundary with a per-run watchdog. Misbehaving runs become
// classified data points (SimError / Timeout / Diverged) with structured
// diagnostics instead of tool crashes; transient failures can be retried
// with a tightened solver step, and every completed run can be journaled to
// a JSONL checkpoint so an interrupted campaign resumes losing at most one
// run.
//
// Parallel execution: the fault list is embarrassingly parallel (every run
// compares an independent simulation against one golden reference), so run()
// shards it across a core::Executor worker pool — each worker runs on its
// own testbench, the golden trace is shared read-only, and results commit in
// fault-list order so parallel output is identical to serial output.

#include "core/executor.hpp"
#include "core/testbench.hpp"
#include "lint/diagnostic.hpp"
#include "obs/probe.hpp"
#include "sim/watchdog.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/compare.hpp"

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>

namespace gfi::ams {
class ConvergencePlan;
}

namespace gfi::obs {
class Telemetry;
}

namespace gfi::campaign {

/// Effect classification of one injected fault.
enum class Outcome {
    Silent,         ///< no observable difference at all
    Latent,         ///< outputs clean, but stored state differs at the end
    TransientError, ///< outputs diverged, then re-converged before the end
    Failure,        ///< outputs still wrong at the end of the observation
    SimError,       ///< the run aborted on a structural simulation error
                    ///< (unknown target, delta-cycle limit, ...)
    Timeout,        ///< a watchdog budget expired before the run finished
    Diverged,       ///< the analog solver lost the solution (non-finite
                    ///< values or step failure at the minimum step)
};

/// Every outcome, in report order. Iterate this — never hard-code the list —
/// so new categories can't be silently dropped from reports.
inline constexpr std::array<Outcome, 7> kAllOutcomes{
    Outcome::Silent,   Outcome::Latent,  Outcome::TransientError, Outcome::Failure,
    Outcome::SimError, Outcome::Timeout, Outcome::Diverged};

/// True for the outcomes produced by run containment rather than comparison.
[[nodiscard]] constexpr bool isAbnormal(Outcome o) noexcept
{
    return o == Outcome::SimError || o == Outcome::Timeout || o == Outcome::Diverged;
}

/// Short name for reports.
[[nodiscard]] const char* toString(Outcome o);

/// Parses a summaryTable()/journal outcome name; false when unknown.
[[nodiscard]] bool outcomeFromString(const std::string& name, Outcome& out);

/// Analog comparison tolerance (paper Section 4.1: analog monitoring needs a
/// tolerance to avoid flagging non-significant deviations).
struct Tolerance {
    double analogAbs = 1e-3;      ///< volts
    double analogRel = 0.0;       ///< fraction of the golden value
    SimTime digitalJitter = 0;    ///< digital mismatch windows shorter than
                                  ///< this are ignored (clock-edge jitter)
};

/// How one injection run executed (containment + resource bookkeeping).
struct RunDiagnostics {
    std::string error;              ///< what() of the contained failure; empty when clean
    int attempts = 1;               ///< total attempts, including the final one
    double wallSeconds = 0.0;       ///< wall-clock time of the final attempt
    std::uint64_t digitalWaves = 0; ///< delta cycles consumed by the final attempt
    std::uint64_t analogSteps = 0;  ///< analog step attempts of the final attempt
    bool fromJournal = false;       ///< restored from a checkpoint, not simulated
    std::string collapsedFrom;      ///< fault description of the simulated
                                    ///< representative this verdict was
                                    ///< expanded from (empty = simulated)
    SimTime checkpointTime = 0;     ///< golden checkpoint this run forked from
                                    ///< (0 = simulated from scratch)
    SimTime resimulatedTime = 0;    ///< simulated time actually re-run after the
                                    ///< fork (0 when from scratch)
    int batchLane = 0;              ///< word-simulation lane (1..63) this verdict
                                    ///< came from; 0 = event-driven kernel
    std::string forensic;           ///< artifact stem of the flight-recorder
                                    ///< dump written for this run (abnormal
                                    ///< outcomes with forensics enabled only;
                                    ///< empty otherwise)
    SimTime convergedAt = -1;       ///< golden event time at which the run's
                                    ///< state was golden's again and it
                                    ///< skipped the rest (-1 = it did not;
                                    ///< in memory only)
    std::uint64_t wavesSkipped = 0; ///< digital waves billed from golden's
                                    ///< suffix instead of simulated

    /// The run's own kernel-counter consumption (final reading minus the
    /// post-restore baseline): how many events/steps/crossings THIS run cost,
    /// plus the final queue depth and step sizes — populated even when the
    /// run ended on a watchdog unwind, which is when the stall picture
    /// matters most. Deterministic (simulated work only), so equal-width and
    /// cross-width campaigns agree. In-memory only unless a telemetry sink
    /// asks the journal to embed it.
    obs::ProbeSnapshot probes;
};

/// Result of one injection run.
struct RunResult {
    fault::FaultSpec fault;
    Outcome outcome = Outcome::Silent;

    // Digital output divergence (across all observed digital signals).
    SimTime firstOutputError = -1;
    SimTime lastOutputErrorEnd = -1;
    SimTime totalOutputErrorTime = 0;

    // Analog divergence (worst observed node).
    double maxAnalogDeviation = 0.0;
    double analogTimeOutsideTol = 0.0;

    /// Observed signals/nodes that diverged in this run.
    std::vector<std::string> erredSignals;

    /// State elements that differed at the end of the run.
    std::vector<std::string> corruptedState;

    /// Containment/watchdog/retry bookkeeping for this run.
    RunDiagnostics diagnostics;
};

/// One finished run as the verdict rule reads it: its comparison with the
/// golden run on each observed signal (already jitter-filtered) and node
/// (under the abs/rel tolerance), and the final value of each observed state
/// hook. The lists are parallel to the golden testbench's observedDigital(),
/// observedAnalog() and observedState().
struct Observation {
    SimTime duration = 0; ///< end of the observation window
    std::vector<trace::DigitalDiff> digital;
    std::vector<trace::AnalogDiff> analog;
    std::vector<std::uint64_t> state;
};

/// The verdict rule, the paper's "results analysis -> classification" step,
/// shared by the event kernel (CampaignRunner::classify) and the batch
/// backend's lanes. Each diff that is not identical (digital) or not within
/// tolerance (analog) marks its signal erred, and each state hook whose
/// value differs from @p goldenState (the golden run's end-of-run values by
/// hook name) is corrupted. An output error still present at the end is a
/// Failure, one that recovered a TransientError; clean outputs with
/// corrupted state are Latent, and everything else is Silent. Throws
/// std::logic_error when a list of @p run is not parallel to golden's.
[[nodiscard]] RunResult classifyObservation(const Observation& run,
                                            const fault::Testbench& golden,
                                            const std::map<std::string, std::uint64_t>& goldenState,
                                            const fault::FaultSpec& fault);

/// Solver dtMax/dtInitial scale per extra attempt of a retried run.
inline constexpr double kRetryStepTighten = 0.25;

/// Retry policy for abnormal runs (transient solver failures mostly).
/// Diverged runs are always retryable; each retry scales the solver step by
/// kRetryStepTighten once more.
struct RetryPolicy {
    int maxAttempts = 1;        ///< total attempts per fault (1 = no retry)
    bool retryTimeout = false;  ///< retry Outcome::Timeout runs
    bool retrySimError = false; ///< retry Outcome::SimError runs

    [[nodiscard]] bool shouldRetry(Outcome o) const noexcept
    {
        switch (o) {
        case Outcome::Diverged:
            return true;
        case Outcome::Timeout:
            return retryTimeout;
        case Outcome::SimError:
            return retrySimError;
        default:
            return false;
        }
    }
};

/// Aggregate of a whole campaign.
struct CampaignReport {
    std::vector<RunResult> runs;

    /// Torn/corrupt journal lines skipped while resuming (0 for a fresh or
    /// clean campaign). Non-zero means the journal lost data — typically a
    /// line torn by a mid-append kill — and the affected runs re-simulated.
    std::size_t journalSkippedLines = 0;

    /// Count of runs per outcome.
    [[nodiscard]] std::map<Outcome, int> histogram() const;

    /// Paper-style classification table as printable text (one row per
    /// Outcome category, always all of them).
    [[nodiscard]] std::string summaryTable() const;

    /// Full per-run listing as printable text.
    [[nodiscard]] std::string detailTable() const;
};

/// Error-propagation model: which injection targets affect which outputs
/// (the "behavioural model generation" box in the paper's flow).
class PropagationModel {
public:
    /// Accumulates one run's observation.
    void record(const std::string& target, const std::vector<std::string>& erredSignals);

    /// Number of runs recorded for @p target.
    [[nodiscard]] int runsFor(const std::string& target) const;

    /// Number of runs in which @p target's fault reached @p signal.
    [[nodiscard]] int reaches(const std::string& target, const std::string& signal) const;

    /// Printable target x signal propagation matrix.
    [[nodiscard]] std::string table() const;

private:
    std::map<std::string, std::map<std::string, int>> counts_;
    std::map<std::string, int> totals_;
};

/// The injection target a fault addresses (for propagation bookkeeping).
[[nodiscard]] std::string targetOf(const fault::FaultSpec& fault);

/// Runs campaigns: one golden run, then one contained run per fault.
class CampaignRunner {
public:
    /// @param factory  builds a fresh instrumented testbench: for the golden
    ///                 run, per worker, and per fresh-path attempt (see run()
    ///                 and fault::TestbenchFactory).
    ///
    /// Every option starts at its default and changes only through the
    /// setters below (README "Campaign options"); the process environment
    /// is never read.
    explicit CampaignRunner(fault::TestbenchFactory factory, Tolerance tolerance = {});

    /// Runs the golden reference (idempotent; run() calls it automatically).
    /// The golden run is NOT contained: a design that cannot complete its
    /// fault-free run is a configuration error and throws. Called directly,
    /// it knows no fault list, so in fork mode it captures no checkpoint.
    void runGolden();

    /// Runs one fault against the golden reference and classifies it. Never
    /// throws on a misbehaving run: simulation errors, watchdog timeouts and
    /// solver divergence become SimError/Timeout/Diverged results with the
    /// failure recorded in diagnostics, retried per the RetryPolicy.
    RunResult runOne(const fault::FaultSpec& fault);

    /// Runs a whole fault list; @p progress (optional) is called per run.
    /// With a journal path set, each result is appended to the JSONL journal
    /// as it completes, and faults already classified in an existing journal
    /// are restored (diagnostics.fromJournal = true) instead of re-simulated.
    ///
    /// Unless disabled with setPreflight(false), the campaign first runs the
    /// static-analysis phase (design lint + fault-list preflight) and throws
    /// lint::PreflightError when it finds errors — a broken design or a
    /// typo'd target fails once, up front, instead of once per run.
    ///
    /// The fault list is sharded across workers() threads; the golden trace
    /// is shared read-only. Results still commit in fault-list order, so the
    /// report, the journal, the progress-callback sequence and every table
    /// are identical to a serial run — wall-clock timing fields excepted,
    /// which setRecordTiming(false) zeroes for byte-level diffing.
    ///
    /// Testbenches: for a purely digital design whose stateful components
    /// are all Snapshottable (PRE006 clean), each worker builds one testbench
    /// through the factory and re-runs it: every later first attempt takes
    /// it from a per-runner pool, restores it from the nearest fork
    /// checkpoint before the injection (fork mode) or else from a pre-start
    /// checkpoint the golden testbench captured before it elaborated, resets
    /// its recorder and arms the fault. Retries, ParametricFault attempts
    /// (their setters change state no snapshot holds) and every attempt on a
    /// design with analog unknowns build a fresh testbench and discard it; so
    /// does an attempt that ends abnormally. Verdicts, probes and wave counts
    /// are the same either way; the pool is emptied before run() returns.
    ///
    /// Convergence exit: when some event-kernel fault has a last scheduled
    /// action (bit flips, state writes, FSM transitions, SETs, timed
    /// stuck-ats), run() replays golden once more on a testbench that then
    /// joins the pool, recording an ams::ConvergencePlan. Each pooled first
    /// attempt at such a fault arms it: once the run's state is golden's
    /// again it takes golden's final state, the kernel bills the skipped
    /// suffix, and golden's recorded events after that instant are appended
    /// to the run's traces — every verdict, journal, report and probe byte
    /// is a full run's (DESIGN.md §9 "Convergence exit").
    CampaignReport run(const std::vector<fault::FaultSpec>& faults,
                       const std::function<void(std::size_t, const RunResult&)>& progress = {});

    /// Worker threads for run() (0 = auto: hardware_concurrency; 1 = serial
    /// on the calling thread). The factory must be safe to call concurrently
    /// — it should build each testbench from per-instance state only.
    void setWorkers(unsigned n) noexcept { options_.workers = n; }
    [[nodiscard]] unsigned workers() const noexcept { return options_.workers; }

    /// Fork-from-golden execution, on when @p cadence > 0 (default: off).
    /// Golden captures a full simulator snapshot at its last scheduled event
    /// strictly before each distinct injection instant (t > 0) of the fault
    /// list run() or runOne() is given — once per runner, within
    /// ams::ConvergencePlan::kMaxMarkBytes — and every first attempt of a
    /// real fault restores the nearest one strictly before its injection and
    /// simulates only the suffix. Results (journal, report, summary table)
    /// stay byte-identical to from-scratch execution because checkpoints sit
    /// where an uninterrupted run's kernels land anyway. Retries and golden
    /// runs always simulate from scratch; run()'s preflight phase adds the
    /// PRE006 snapshot-readiness check while forking. Requires testbenches
    /// that use the default Testbench::run() (plain sim().run(duration())).
    void setCheckpointCadence(SimTime cadence) noexcept { options_.checkpointCadence = cadence > 0; }

    /// Golden checkpoints captured so far (0 until run() or runOne() in fork
    /// mode).
    [[nodiscard]] std::size_t checkpointCount() const noexcept { return checkpoints_.size(); }

    /// Static fault collapsing: when enabled, run() partitions the fault
    /// list into provably-equivalent classes (analyze::collapseFaults) and
    /// simulates one representative per class; the other members' results
    /// are expanded from the representative's at commit time, with
    /// diagnostics.collapsedFrom naming the simulated fault. Per-fault
    /// classifications are byte-identical to a full campaign (that is the
    /// soundness contract of the collapser); resource diagnostics of
    /// expanded members are zero and their journal lines carry the
    /// "collapsed_from" provenance key. Default: off.
    void setFaultCollapsing(bool on) noexcept { options_.collapse = on; }
    [[nodiscard]] bool faultCollapsingEnabled() const noexcept { return options_.collapse; }

    /// Bit-parallel batch backend: when enabled, run() packs batch-eligible
    /// digital faults into 64-lane word simulations (lane 0 golden, lanes
    /// 1..63 one fault each — src/batch) and classifies each lane by its
    /// divergence against the golden reference; only faults the word kernel
    /// cannot replay bit-exactly (stuck-at-X, analog/AMS faults, components
    /// outside the word-compiled library) run through the event-driven
    /// kernel. Classifications, journals and reports are
    /// byte-identical to an event-driven campaign at any worker width; the
    /// only journal difference is the "batch_lane" provenance key on
    /// word-simulated lines. Composes with fault collapsing (representatives
    /// batch, members expand), journal resume and the worker pool. Per-run
    /// watchdog budgets disable batching for the campaign (a shared word run
    /// cannot meter per-fault budgets). Under fork-from-golden the word
    /// groups run from scratch and the event-kernel remainder forks.
    /// Default: off.
    void setBatchBackend(bool on) noexcept { options_.batch = on; }
    [[nodiscard]] bool batchBackendEnabled() const noexcept { return options_.batch; }

    /// When disabled, diagnostics.wallSeconds, checkpointTime and
    /// resimulatedTime are recorded as 0 so journals and reports are
    /// byte-stable across runs, worker counts and fork-from-golden modes
    /// (the wall clock is nondeterministic; the checkpoint fields depend on
    /// where golden captured). Default: enabled.
    void setRecordTiming(bool on) noexcept { options_.recordTiming = on; }
    [[nodiscard]] bool recordTiming() const noexcept { return options_.recordTiming; }

    /// Enables/disables run()'s static-analysis phase (default: enabled).
    void setPreflight(bool on) noexcept { options_.preflight = on; }
    [[nodiscard]] bool preflightEnabled() const noexcept { return options_.preflight; }

    /// The report run()'s preflight phase gates on: design lint of the
    /// golden testbench (built, not simulated) plus fault-list validation.
    [[nodiscard]] lint::Report preflightReport(const std::vector<fault::FaultSpec>& faults);

    /// The golden testbench (valid after runGolden); exposes golden traces.
    [[nodiscard]] const fault::Testbench& golden() const;

    /// Builds a throwaway testbench (target enumeration for fault lists).
    [[nodiscard]] std::unique_ptr<fault::Testbench> makeTestbench() const { return factory_(); }

    /// The tolerance in use.
    [[nodiscard]] const Tolerance& tolerance() const noexcept { return options_.tolerance; }

    /// Adjusts the analog tolerance (ablation sweeps re-classify with this).
    void setTolerance(Tolerance t) { options_.tolerance = t; }

    /// Per-run watchdog budgets (default: unlimited).
    void setWatchdogConfig(WatchdogConfig c) noexcept { options_.watchdog = c; }
    [[nodiscard]] const WatchdogConfig& watchdogConfig() const noexcept
    {
        return options_.watchdog;
    }

    /// Retry policy for abnormal runs (default: single attempt).
    void setRetryPolicy(RetryPolicy p) noexcept { options_.retry = p; }
    [[nodiscard]] const RetryPolicy& retryPolicy() const noexcept { return options_.retry; }

    /// Enables the JSONL campaign journal (empty path disables). run() then
    /// checkpoints each result as it completes and resumes from an existing
    /// journal, so an interrupted campaign loses at most one run.
    void setJournalPath(std::string path) { options_.journalPath = std::move(path); }
    [[nodiscard]] const std::string& journalPath() const noexcept { return options_.journalPath; }

    /// Attaches a telemetry sink (not owned; must outlive run()). run() then
    /// records campaign metrics into its registry, emits Chrome-trace spans
    /// when tracing is enabled, and embeds per-run kernel deltas into the
    /// journal so a resumed campaign reproduces the same metric counts, and
    /// flushes the sink's configured trace and metrics files at the end.
    /// Without a sink every instrumentation site is a null-check no-op and
    /// all outputs are byte-identical to an unobserved campaign.
    void setTelemetry(obs::Telemetry& telemetry) noexcept { telemetry_ = &telemetry; }
    [[nodiscard]] obs::Telemetry* telemetry() const noexcept { return telemetry_; }

    /// Enables flight-recorder forensics: every contained attempt runs with a
    /// bounded kernel-event ring attached, and any attempt that ends
    /// abnormally (SimError/Timeout/Diverged) dumps its last-N window into
    /// @p dir as "<dir>/run-<fault-hash>-a<attempt>.jsonl" plus a
    /// Perfetto-loadable "....trace.json"; diagnostics.forensic then names
    /// the artifact stem and the journal line carries a "forensic" key.
    /// Events hold simulated time and kernel counters only, so the artifacts
    /// are byte-identical across reruns and worker widths. An empty @p dir
    /// disables (the default). A failed dump warns on stderr and leaves the
    /// run classified — forensics never turn a data point into a crash.
    void setForensics(std::string dir) { options_.forensicsDir = std::move(dir); }
    [[nodiscard]] const std::string& forensicsDir() const noexcept { return options_.forensicsDir; }

    /// Attaches a live progress sink: run() then emits one NDJSON line per
    /// event — a "start" line before the worker phase, "heartbeat" lines from
    /// the ordered-commit path at most every @p cadenceSeconds (<= 0 = every
    /// commit, deterministic for tests), and a final "done" line. Counts are
    /// cumulative over the whole campaign including journal-restored runs, so
    /// a resumed campaign reports restored + new, never from zero; the
    /// throughput/ETA fields are computed from newly executed runs only, and
    /// are omitted (with elapsed_s pinned to 0) when setRecordTiming(false)
    /// keeps the stream byte-deterministic. The sink is called from inside
    /// the ordered commit — keep it fast; an empty function detaches.
    void setProgressSink(std::function<void(const std::string&)> sink,
                         double cadenceSeconds = 1.0)
    {
        progressSink_ = std::move(sink);
        progressCadence_ = cadenceSeconds;
    }

    /// Re-classifies a finished faulty testbench (built by this runner's
    /// factory and simulated from t = 0, so it holds whole traces) against
    /// the golden run: compares the testbench's traces with golden's under
    /// this runner's tolerance, reads its state hooks, and applies
    /// classifyObservation() to the resulting Observation. Used by
    /// tolerance-sweep ablations and figure benches without re-simulating.
    /// Requires runGolden().
    [[nodiscard]] RunResult classify(fault::Testbench& tb, const fault::FaultSpec& fault) const;

private:
    /// Everything the setters configure: defaults until a setter overwrites
    /// a single field.
    struct Options {
        Tolerance tolerance;
        WatchdogConfig watchdog;
        RetryPolicy retry;
        std::string journalPath;
        unsigned workers = 0;          ///< 0 = auto (hardware_concurrency)
        bool recordTiming = true;
        bool preflight = true;
        bool checkpointCadence = false; ///< fork from golden checkpoints
        bool collapse = false;
        bool batch = false;
        std::string forensicsDir;      ///< empty = off
    };

    /// True when golden checkpoints are captured and first attempts fork.
    [[nodiscard]] bool forking() const noexcept { return options_.checkpointCadence; }

    /// runGolden() that, in fork mode, captures golden's checkpoints for
    /// the injection instants of @p faults (see setCheckpointCadence).
    void runGoldenFor(std::span<const fault::FaultSpec> faults);

    /// The golden checkpoint a first attempt at @p fault forks from: the
    /// latest one strictly before the injection instant (restoring one taken
    /// at that instant would re-run the injection wave), or null. Counts a
    /// hit or a miss whenever checkpoints exist; golden runs, retries and
    /// faults at t <= 0 never look.
    [[nodiscard]] std::shared_ptr<const snapshot::Snapshot>
    forkPoint(const fault::FaultSpec& fault, int attempt);

    /// One contained attempt: build (or take a pooled testbench and restore
    /// it), arm, run under the watchdog, classify.
    RunResult attemptOne(const fault::FaultSpec& fault, int attempt);

    /// classify() for a testbench resumed from golden checkpoint @p fork
    /// (null: simulated from t = 0), whose traces hold only the suffix.
    [[nodiscard]] RunResult classify(fault::Testbench& tb, const fault::FaultSpec& fault,
                                     const snapshot::Snapshot* fork) const;

    /// runOne() minus the golden-run bootstrap — the worker entry point:
    /// requires runGolden() to have completed, touches only run-local state
    /// plus the read-only golden reference.
    RunResult runContained(const fault::FaultSpec& fault);

    /// Applies one committed run to the metrics registry (outcome/attempt
    /// counters, kernel-probe deltas, fork savings). Called in commit order;
    /// only counter/gauge folds, so totals are worker-width invariant.
    void recordRunMetrics(const RunResult& r);

    fault::TestbenchFactory factory_;
    Options options_;
    unsigned activeWorkers_ = 1;  ///< resolved count while run() executes
    bool goldenRan_ = false;
    std::unique_ptr<fault::Testbench> golden_;
    std::map<std::string, std::uint64_t> goldenState_;
    /// Golden's convergence plan for run()'s worker phase (null: no eligible
    /// fault, or no pool). Shared read-only by the workers.
    std::shared_ptr<const ams::ConvergencePlan> convergence_;
    /// Golden checkpoints in time order, fork mode only. runGoldenFor()
    /// fills it before any worker starts and nothing writes it afterwards,
    /// so worker lookups take no lock.
    std::vector<std::shared_ptr<const snapshot::Snapshot>> checkpoints_;
    bool checkpointsBilled_ = false;             ///< captures already in telemetry
    std::atomic<std::uint64_t> forkHits_{0};     ///< unbilled lookups that found one
    std::atomic<std::uint64_t> forkMisses_{0};   ///< unbilled lookups that found none
    /// The golden testbench as built, before elaboration; null when the
    /// design cannot re-run pooled testbenches (analog unknowns, PRE006).
    std::shared_ptr<const snapshot::Snapshot> preStart_;
    std::atomic<bool> pooling_{false}; ///< run()'s worker phase re-runs testbenches
    std::mutex poolMutex_;
    std::vector<std::unique_ptr<fault::Testbench>> pool_; ///< idle testbenches
    obs::Telemetry* telemetry_ = nullptr;   ///< attached sink (not owned)
    std::function<void(const std::string&)> progressSink_; ///< NDJSON consumer
    double progressCadence_ = 1.0;    ///< min seconds between heartbeats
};

} // namespace gfi::campaign
