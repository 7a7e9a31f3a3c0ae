#include "core/campaign.hpp"

#include "ams/convergence.hpp"
#include "analyze/collapse.hpp"
#include "batch/backend.hpp"
#include "core/journal.hpp"
#include "lint/lint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim/errors.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>

namespace gfi::campaign {

namespace {

/// The result of an expanded (not simulated) member of a collapse class:
/// the representative's classification verbatim, zero resource consumption,
/// provenance in diagnostics.collapsedFrom.
RunResult expandCollapsed(const RunResult& rep, const fault::FaultSpec& member)
{
    RunResult r = rep;
    r.fault = member;
    r.diagnostics = RunDiagnostics{};
    r.diagnostics.error = rep.diagnostics.error;
    r.diagnostics.collapsedFrom = fault::describe(rep.fault);
    return r;
}

/// FNV-1a 64-bit of a fault description, as 16 hex digits — the stable,
/// filesystem-safe run identity forensic artifacts are named by (fault
/// descriptions contain '/', spaces and '@').
std::string fnv1aHex(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

/// The instant of @p fault's last scheduled action — a flip's or a write's,
/// a SET's release, a timed stuck-at's release — after which the fault no
/// longer touches the run; nothing for a permanent stuck-at, an analog or a
/// parametric fault (and golden).
std::optional<SimTime> lastActionTime(const fault::FaultSpec& fault)
{
    if (const auto* f = std::get_if<fault::DigitalPulseFault>(&fault)) {
        return f->time + f->width;
    }
    if (const auto* f = std::get_if<fault::StuckAtFault>(&fault)) {
        return f->duration > 0 ? std::optional<SimTime>(f->time + f->duration) : std::nullopt;
    }
    if (std::holds_alternative<fault::BitFlipFault>(fault) ||
        std::holds_alternative<fault::DoubleBitFlipFault>(fault) ||
        std::holds_alternative<fault::StateWriteFault>(fault) ||
        std::holds_alternative<fault::FsmTransitionFault>(fault)) {
        return fault::injectionTime(fault);
    }
    return std::nullopt;
}

/// True when @p twin recorded exactly @p golden's digital traces.
bool sameDigitalTraces(const trace::Recorder& twin, const trace::Recorder& golden)
{
    const auto& a = twin.digitalTraces();
    const auto& b = golden.digitalTraces();
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](const auto& x, const auto& y) {
               return x.first == y.first && x.second.initial == y.second.initial &&
                      x.second.events == y.second.events;
           });
}

/// Where a fault index's verdict comes from; run() consults the sources in
/// declaration order and each index takes its verdict from the first that has
/// one.
enum class Source : std::uint8_t { Journal, Expand, Batch, Kernel };

} // namespace

const char* toString(Outcome o)
{
    switch (o) {
    case Outcome::Silent:
        return "silent";
    case Outcome::Latent:
        return "latent";
    case Outcome::TransientError:
        return "transient";
    case Outcome::Failure:
        return "failure";
    case Outcome::SimError:
        return "sim-error";
    case Outcome::Timeout:
        return "timeout";
    case Outcome::Diverged:
        return "diverged";
    }
    return "?";
}

bool outcomeFromString(const std::string& name, Outcome& out)
{
    for (Outcome o : kAllOutcomes) {
        if (name == toString(o)) {
            out = o;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// CampaignReport

std::map<Outcome, int> CampaignReport::histogram() const
{
    std::map<Outcome, int> h;
    for (const RunResult& r : runs) {
        ++h[r.outcome];
    }
    return h;
}

std::string CampaignReport::summaryTable() const
{
    const auto h = histogram();
    TextTable t;
    t.setHeader({"outcome", "count", "fraction"});
    const int total = static_cast<int>(runs.size());
    for (Outcome o : kAllOutcomes) {
        const int n = h.count(o) != 0 ? h.at(o) : 0;
        t.addRow({toString(o), std::to_string(n),
                  total > 0 ? formatDouble(100.0 * n / total, 4) + " %" : "-"});
    }
    t.addSeparator();
    t.addRow({"total", std::to_string(total), "100 %"});

    // Fork-from-golden savings footer — only when at least one run actually
    // forked, so non-forking campaigns keep the exact historical table.
    int forked = 0;
    SimTime skipped = 0;
    for (const RunResult& r : runs) {
        if (r.diagnostics.checkpointTime > 0) {
            ++forked;
            skipped += r.diagnostics.checkpointTime;
        }
    }
    if (forked > 0) {
        t.addSeparator();
        t.addRow({"forked runs", std::to_string(forked), formatTime(skipped) + " skipped"});
    }
    // Collapse footer — only when at least one verdict was statically
    // expanded, so non-collapsed campaigns keep the exact historical table.
    int collapsed = 0;
    for (const RunResult& r : runs) {
        if (!r.diagnostics.collapsedFrom.empty()) {
            ++collapsed;
        }
    }
    if (collapsed > 0) {
        t.addSeparator();
        t.addRow({"collapsed runs", std::to_string(collapsed), "statically expanded"});
    }
    // Lossy-resume footer — only when the journal actually lost lines, so
    // clean campaigns keep the exact historical table.
    if (journalSkippedLines > 0) {
        t.addSeparator();
        t.addRow({"journal lines skipped", std::to_string(journalSkippedLines),
                  "torn/corrupt"});
    }
    return t.str();
}

std::string CampaignReport::detailTable() const
{
    TextTable t;
    t.setHeader({"fault", "outcome", "first err", "err time", "max analog dev", "error"});
    for (const RunResult& r : runs) {
        // Abnormal runs carry the contained failure instead of metrics.
        std::string note = r.diagnostics.error;
        if (note.size() > 60) {
            note = note.substr(0, 57) + "...";
        }
        t.addRow({fault::describe(r.fault), toString(r.outcome),
                  r.firstOutputError >= 0 ? formatTime(r.firstOutputError) : "-",
                  r.totalOutputErrorTime > 0 ? formatTime(r.totalOutputErrorTime) : "-",
                  r.maxAnalogDeviation > 0 ? formatSi(r.maxAnalogDeviation, "V") : "-",
                  note.empty() ? "-" : note});
    }
    return t.str();
}

// ---------------------------------------------------------------------------
// PropagationModel

void PropagationModel::record(const std::string& target,
                              const std::vector<std::string>& erredSignals)
{
    ++totals_[target];
    for (const std::string& sig : erredSignals) {
        ++counts_[target][sig];
    }
}

int PropagationModel::runsFor(const std::string& target) const
{
    const auto it = totals_.find(target);
    return it == totals_.end() ? 0 : it->second;
}

int PropagationModel::reaches(const std::string& target, const std::string& signal) const
{
    const auto it = counts_.find(target);
    if (it == counts_.end()) {
        return 0;
    }
    const auto jt = it->second.find(signal);
    return jt == it->second.end() ? 0 : jt->second;
}

std::string PropagationModel::table() const
{
    // Collect the union of affected signals for the column set.
    std::vector<std::string> signals;
    for (const auto& [target, row] : counts_) {
        for (const auto& [sig, n] : row) {
            if (std::find(signals.begin(), signals.end(), sig) == signals.end()) {
                signals.push_back(sig);
            }
        }
    }
    TextTable t;
    std::vector<std::string> header{"target \\ reaches", "runs"};
    header.insert(header.end(), signals.begin(), signals.end());
    t.setHeader(header);
    for (const auto& [target, total] : totals_) {
        std::vector<std::string> row{target, std::to_string(total)};
        for (const std::string& sig : signals) {
            row.push_back(std::to_string(reaches(target, sig)));
        }
        t.addRow(row);
    }
    return t.str();
}

std::string targetOf(const fault::FaultSpec& fault)
{
    return std::visit(
        [](const auto& f) -> std::string {
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, std::monostate>) {
                return "golden";
            } else if constexpr (std::is_same_v<T, fault::BitFlipFault> ||
                                 std::is_same_v<T, fault::DoubleBitFlipFault> ||
                                 std::is_same_v<T, fault::StateWriteFault> ||
                                 std::is_same_v<T, fault::FsmTransitionFault>) {
                return f.target;
            } else if constexpr (std::is_same_v<T, fault::DigitalPulseFault> ||
                                 std::is_same_v<T, fault::StuckAtFault> ||
                                 std::is_same_v<T, fault::CurrentPulseFault>) {
                return f.saboteur;
            } else {
                return f.parameter;
            }
        },
        fault);
}

// ---------------------------------------------------------------------------
// CampaignRunner

CampaignRunner::CampaignRunner(fault::TestbenchFactory factory, Tolerance tolerance)
    : factory_(std::move(factory))
{
    options_.tolerance = tolerance;
}

void CampaignRunner::runGolden()
{
    if (goldenRan_) {
        return;
    }
    if (!golden_) {
        golden_ = factory_(); // may already exist: preflight lints it pre-run
    }
    // The pre-start checkpoint: the golden testbench as built, before it
    // elaborates. Restoring it turns a used testbench back into a fresh
    // build, so workers can re-run theirs instead of building one per fault
    // — when every piece of state is in the snapshot: no analog unknowns
    // (their pre-DC state is not serialized) and no stateful component
    // outside Snapshottable (PRE006).
    if (!preStart_ && !golden_->sim().elaborated() &&
        golden_->sim().analog().unknownCount() == 0 &&
        lint::preflightSnapshot(*golden_).count(lint::Severity::Error) == 0) {
        preStart_ = std::make_shared<const snapshot::Snapshot>(
            golden_->sim().capturePreStartSnapshot());
    }
    if (forking()) {
        // Fork-from-golden: advance event by event and capture at the first
        // scheduled event past each cadence mark. Scheduled event times are
        // exactly where an uninterrupted run's kernels stop anyway (the
        // analog solver never steps past the next digital event), so the
        // capture points perturb nothing and a restored run is bit-identical
        // to a from-scratch one.
        auto& sim = golden_->sim();
        sim.elaborate();
        const SimTime duration = golden_->duration();
        SimTime nextMark = options_.checkpointCadence;
        while (true) {
            const SimTime ev = sim.digital().scheduler().nextEventTime();
            if (ev >= duration) {
                break;
            }
            sim.run(ev);
            if (ev >= nextMark) {
                checkpoints_.push_back(
                    std::make_shared<const snapshot::Snapshot>(sim.captureSnapshot()));
                nextMark = ev + options_.checkpointCadence;
                if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
                    telemetry_->trace()->instantEvent(
                        "checkpoint", "golden", "{\"sim_time\": \"" + formatTime(ev) + "\"}");
                }
            }
        }
        sim.run(duration);
    } else {
        golden_->run();
    }
    goldenRan_ = true;
    for (const std::string& name : golden_->observedState()) {
        goldenState_[name] = golden_->sim().digital().instrumentation().hook(name).get();
    }
}

const fault::Testbench& CampaignRunner::golden() const
{
    if (!goldenRan_) {
        throw std::logic_error("CampaignRunner: golden run not executed yet");
    }
    return *golden_;
}

lint::Report CampaignRunner::preflightReport(const std::vector<fault::FaultSpec>& faults)
{
    if (!golden_) {
        golden_ = factory_(); // lint the design without running it
    }
    return lint::lintCampaign(*golden_, faults);
}

RunResult CampaignRunner::classify(fault::Testbench& tb, const fault::FaultSpec& fault) const
{
    return classify(tb, fault, nullptr);
}

RunResult CampaignRunner::classify(fault::Testbench& tb, const fault::FaultSpec& fault,
                                   const snapshot::Snapshot* fork) const
{
    // A forked run's traces continue golden's, so each comparison starts
    // after golden's events (samples) at or before the checkpoint.
    const Tolerance& tol = options_.tolerance;
    Observation run;
    run.duration = tb.duration();
    for (const std::string& name : golden_->observedDigital()) {
        const trace::DigitalTrace& g = golden_->recorder().digitalTrace(name);
        std::optional<std::size_t> shared;
        if (fork != nullptr) {
            shared = static_cast<std::size_t>(
                std::upper_bound(g.events.begin(), g.events.end(), fork->time,
                                 [](SimTime t, const auto& ev) { return t < ev.first; }) -
                g.events.begin());
        }
        run.digital.push_back(trace::compareDigital(g, tb.recorder().digitalTrace(name),
                                                    run.duration, tol.digitalJitter, shared));
    }
    for (const std::string& name : golden_->observedAnalog()) {
        const trace::AnalogTrace& g = golden_->recorder().analogTrace(name);
        std::size_t shared = 0;
        if (fork != nullptr) {
            shared = static_cast<std::size_t>(
                std::upper_bound(g.samples.begin(), g.samples.end(), fork->analogTime,
                                 [](double t, const auto& s) { return t < s.first; }) -
                g.samples.begin());
        }
        run.analog.push_back(trace::compareAnalog(g, tb.recorder().analogTrace(name),
                                                  tol.analogAbs, tol.analogRel, shared));
    }
    for (const std::string& name : golden_->observedState()) {
        run.state.push_back(tb.sim().digital().instrumentation().hook(name).get());
    }
    return classifyObservation(run, *golden_, goldenState_, fault);
}

RunResult classifyObservation(const Observation& run, const fault::Testbench& golden,
                              const std::map<std::string, std::uint64_t>& goldenState,
                              const fault::FaultSpec& fault)
{
    const std::vector<std::string>& digital = golden.observedDigital();
    const std::vector<std::string>& analog = golden.observedAnalog();
    const std::vector<std::string>& state = golden.observedState();
    if (run.digital.size() != digital.size() || run.analog.size() != analog.size() ||
        run.state.size() != state.size()) {
        throw std::logic_error("classifyObservation: observation is not parallel to "
                               "golden's observed lists");
    }
    RunResult result;
    result.fault = fault;

    const SimTime tEnd = run.duration;
    bool anyOutputError = false;
    bool recoveredEverywhere = true;

    // Digital outputs: exact comparison (after the jitter filter).
    for (std::size_t k = 0; k < digital.size(); ++k) {
        const trace::DigitalDiff& diff = run.digital[k];
        if (!diff.identical()) {
            anyOutputError = true;
            result.erredSignals.push_back(digital[k]);
            if (result.firstOutputError < 0 || diff.firstMismatch < result.firstOutputError) {
                result.firstOutputError = diff.firstMismatch;
            }
            if (diff.lastMismatchEnd > result.lastOutputErrorEnd) {
                result.lastOutputErrorEnd = diff.lastMismatchEnd;
            }
            result.totalOutputErrorTime += diff.totalMismatch;
            recoveredEverywhere = recoveredEverywhere && diff.matchesAt(tEnd);
        }
    }

    // Analog outputs: tolerance-based comparison.
    for (std::size_t k = 0; k < analog.size(); ++k) {
        const trace::AnalogDiff& diff = run.analog[k];
        result.maxAnalogDeviation = std::max(result.maxAnalogDeviation, diff.maxDeviation);
        if (!diff.withinTolerance()) {
            anyOutputError = true;
            result.erredSignals.push_back(analog[k]);
            result.analogTimeOutsideTol += diff.timeOutsideTol;
            recoveredEverywhere = recoveredEverywhere && diff.withinTolAtEnd;
            const SimTime first = fromSeconds(diff.firstExceed);
            if (result.firstOutputError < 0 || first < result.firstOutputError) {
                result.firstOutputError = first;
            }
        }
    }

    // Final-state comparison (latent faults).
    for (std::size_t k = 0; k < state.size(); ++k) {
        const auto it = goldenState.find(state[k]);
        if (it != goldenState.end() && it->second != run.state[k]) {
            result.corruptedState.push_back(state[k]);
        }
    }

    if (anyOutputError) {
        result.outcome = recoveredEverywhere ? Outcome::TransientError : Outcome::Failure;
    } else if (!result.corruptedState.empty()) {
        result.outcome = Outcome::Latent;
    } else {
        result.outcome = Outcome::Silent;
    }
    return result;
}

std::shared_ptr<const snapshot::Snapshot> CampaignRunner::forkPoint(const fault::FaultSpec& fault,
                                                                     int attempt)
{
    // Retries always re-simulate from scratch: a tightened solver step
    // invalidates the captured integrator history.
    if (attempt != 1 || checkpoints_.empty() || fault::isGolden(fault)) {
        return nullptr;
    }
    const SimTime tInj = fault::injectionTime(fault);
    if (tInj <= 0) {
        return nullptr;
    }
    const auto next = std::lower_bound(checkpoints_.begin(), checkpoints_.end(), tInj,
                                       [](const auto& cp, SimTime t) { return cp->time < t; });
    if (next == checkpoints_.begin()) {
        forkMisses_.fetch_add(1, std::memory_order_relaxed); // all at or after tInj
        return nullptr;
    }
    forkHits_.fetch_add(1, std::memory_order_relaxed);
    return *std::prev(next);
}

RunResult CampaignRunner::attemptOne(const fault::FaultSpec& fault, int attempt)
{
    RunResult result;
    result.fault = fault;

    const std::shared_ptr<const snapshot::Snapshot> cp = forkPoint(fault, attempt);
    // Pooled testbenches: a first attempt re-runs a worker's used testbench,
    // restored from cp or else from the pre-start checkpoint. Retries and
    // parametric faults take the fresh path and discard their testbench.
    const bool pooled = attempt == 1 && pooling_.load(std::memory_order_relaxed) &&
                        !std::holds_alternative<fault::ParametricFault>(fault);

    Watchdog watchdog(options_.watchdog.scaledFor(activeWorkers_));
    obs::Telemetry* const tel = telemetry_;
    // Forensics: a bounded kernel-event ring rides along with the run; it is
    // declared before the testbench so the simulator's recorder pointer never
    // outlives it. Recording is a branch plus a fixed-slot write, so arming
    // it for every run of a campaign is fine.
    const std::string& forensics = options_.forensicsDir;
    std::unique_ptr<obs::FlightRecorder> recorder;
    if (!forensics.empty()) {
        recorder = std::make_unique<obs::FlightRecorder>(obs::FlightRecorder::kDefaultCapacity);
    }
    std::unique_ptr<fault::Testbench> tb;
    if (pooled) {
        const std::lock_guard<std::mutex> lock(poolMutex_);
        if (!pool_.empty()) {
            tb = std::move(pool_.back());
            pool_.pop_back();
        }
    }
    // The state this attempt starts from: the golden checkpoint, else the
    // as-built state for a reused testbench, else a fresh build.
    const snapshot::Snapshot* const from = cp ? cp.get() : tb ? preStart_.get() : nullptr;
    obs::ProbeSnapshot baseline;
    try {
        if (!tb) {
            obs::Span span(tel, "build", "run");
            tb = factory_();
        }
        if (recorder) {
            tb->sim().setFlightRecorder(recorder.get());
        }
        if (attempt > 1) {
            tb->sim().setSolverStepScale(std::pow(kRetryStepTighten, attempt - 1));
        }
        if (from != nullptr) {
            obs::Span span(tel, "restore", "run");
            tb->sim().restoreSnapshot(*from);
            tb->recorder().reset();
            if (cp) {
                // Re-arm so the wave/step/wall budgets meter only the
                // post-restore suffix, not the restore work — a forked run
                // must never trip a budget its from-scratch twin would survive.
                watchdog.arm();
            }
        }
        tb->sim().setWatchdog(&watchdog);
        // Probe baseline AFTER a possible restore: restored kernels carry the
        // golden prefix's counters, which must not be billed to this run —
        // that subtraction is what makes per-run deltas agree between forked
        // and from-scratch execution.
        baseline = tb->sim().sampleProbes();
        fault::armFault(*tb, fault);
        if (pooled && convergence_) {
            if (const std::optional<SimTime> last = lastActionTime(fault)) {
                tb->sim().armConvergence(convergence_.get(), *last);
            }
        }
        {
            obs::Span span(tel, "simulate", "run");
            tb->run();
        }
        if (const SimTime at = tb->sim().convergedAt(); at >= 0) {
            tb->recorder().appendSuffix(golden_->recorder(), at);
            if (tel != nullptr && tel->trace() != nullptr) {
                tel->trace()->instantEvent("converged", "run",
                                           "{\"sim_time\": \"" + formatTime(at) + "\"}");
            }
        }
        {
            obs::Span span(tel, "classify", "run");
            result = classify(*tb, fault, cp.get());
        }
    } catch (const WatchdogTimeout& e) {
        result.outcome = Outcome::Timeout;
        result.diagnostics.error = e.what();
    } catch (const DivergenceError& e) {
        result.outcome = Outcome::Diverged;
        result.diagnostics.error = e.what();
    } catch (const std::exception& e) {
        // Unknown targets (std::invalid_argument), scheduler limits and any
        // other structural failure: a classified data point, not a crash.
        result.outcome = Outcome::SimError;
        result.diagnostics.error = e.what();
    }

    if (tb) {
        result.diagnostics.convergedAt = tb->sim().convergedAt();
        result.diagnostics.wavesSkipped = tb->sim().convergenceSkippedWaves();
        tb->sim().armConvergence(nullptr, 0);
        tb->sim().setWatchdog(nullptr);
        tb->sim().setFlightRecorder(nullptr);
        result.diagnostics.digitalWaves = tb->sim().digital().scheduler().deltaCycles();
        if (tb->sim().elaborated()) {
            const auto& stats = tb->sim().solver().stats();
            result.diagnostics.analogSteps = stats.acceptedSteps + stats.rejectedSteps;
        }
        if (baseline.valid) {
            // Sampled even after a watchdog unwind — the final queue depth
            // and solver step sizes are the stall picture for Timeout runs.
            result.diagnostics.probes = tb->sim().sampleProbes().delta(baseline);
        }
    }
    result.diagnostics.wallSeconds = options_.recordTiming ? watchdog.elapsedSeconds() : 0.0;
    if (cp && options_.recordTiming) {
        result.diagnostics.checkpointTime = cp->time;
        if (tb) {
            result.diagnostics.resimulatedTime =
                std::max<SimTime>(tb->sim().now() - cp->time, 0);
        }
    }
    // Abnormal terminal attempt with forensics armed: dump the last-N kernel
    // window. Artifact names are derived from the fault identity and attempt
    // number only, so reruns and different worker widths produce identical
    // paths and (the events being simulated-time-only) identical bytes. A
    // failed dump must not turn a classified data point into a crash.
    if (recorder && isAbnormal(result.outcome)) {
        const std::string stem =
            forensics + "/run-" + fnv1aHex(fault::describe(fault)) + "-a" +
            std::to_string(attempt);
        try {
            recorder->writeArtifacts(stem);
            result.diagnostics.forensic = stem;
            if (tel != nullptr && tel->trace() != nullptr) {
                tel->trace()->instantEvent("forensic dump", "run",
                                           "{\"stem\": \"" + util::jsonEscape(stem) + "\"}");
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "gfi: forensics: dump failed for %s: %s\n", stem.c_str(),
                         e.what());
        }
    }
    // An abnormal outcome may have unwound mid-wave: that testbench is dropped.
    if (pooled && tb && !isAbnormal(result.outcome)) {
        const std::lock_guard<std::mutex> lock(poolMutex_);
        pool_.push_back(std::move(tb));
    }
    return result;
}

RunResult CampaignRunner::runContained(const fault::FaultSpec& fault)
{
    const int maxAttempts = std::max(1, options_.retry.maxAttempts);
    RunResult result;
    for (int attempt = 1;; ++attempt) {
        result = attemptOne(fault, attempt);
        result.diagnostics.attempts = attempt;
        if (!isAbnormal(result.outcome) || attempt >= maxAttempts ||
            !options_.retry.shouldRetry(result.outcome)) {
            return result;
        }
        // Counted at decision time because only the final outcome survives
        // into the result — the cause label would otherwise be lost when a
        // retry succeeds.
        if (obs::Telemetry* tel = telemetry_) {
            tel->metrics()
                .counter(std::string("gfi_run_retries_total{cause=\"") +
                             toString(result.outcome) + "\"}",
                         "Retried attempts by the abnormal outcome that triggered them")
                .inc();
        }
    }
}

RunResult CampaignRunner::runOne(const fault::FaultSpec& fault)
{
    runGolden();
    return runContained(fault);
}

void CampaignRunner::recordRunMetrics(const RunResult& r)
{
    obs::Telemetry* const tel = telemetry_;
    if (tel == nullptr) {
        return;
    }
    obs::MetricsRegistry& m = tel->metrics();
    m.counter(std::string("gfi_runs_total{outcome=\"") + toString(r.outcome) + "\"}",
              "Classified campaign runs by outcome")
        .inc();
    m.counter("gfi_run_attempts_total", "Contained run attempts, including retries")
        .inc(static_cast<std::uint64_t>(std::max(1, r.diagnostics.attempts)));
    if (r.diagnostics.convergedAt >= 0) {
        m.counter("gfi_runs_converged_total",
                  "Runs whose state was golden's again and that skipped golden's suffix")
            .inc();
        m.counter("gfi_digital_waves_skipped_total",
                  "Digital waves billed from golden's suffix instead of simulated")
            .inc(r.diagnostics.wavesSkipped);
    }

    const obs::ProbeSnapshot& p = r.diagnostics.probes;
    if (!p.valid) {
        return; // never sampled (restored from a pre-telemetry journal)
    }
    m.counter("gfi_digital_events_total", "Digital event-queue entries executed")
        .inc(p.digitalEvents);
    m.counter("gfi_digital_delta_cycles_total", "Delta-cycle waves run").inc(p.deltaCycles);
    m.gauge("gfi_digital_queue_high_water", "Deepest pending event queue of any run")
        .foldMax(static_cast<double>(p.queueHighWater));
    m.counter("gfi_analog_steps_accepted_total", "Accepted analog integration steps")
        .inc(p.analogAcceptedSteps);
    m.counter("gfi_analog_steps_rejected_total", "Rejected analog integration steps")
        .inc(p.analogRejectedSteps);
    m.counter("gfi_analog_newton_iterations_total", "Newton iterations across all steps")
        .inc(p.newtonIterations);
    m.counter("gfi_analog_companion_rebuilds_total",
              "Companion-model restarts after discontinuities")
        .inc(p.companionRebuilds);
    m.counter("gfi_analog_crossing_fallbacks_total",
              "Threshold crossings located by the bisection fallback")
        .inc(p.crossingFallbacks);
    for (std::size_t i = 0; i < p.stepsLimitedBy.size(); ++i) {
        const char* limit = obs::toString(static_cast<obs::StepLimit>(i));
        m.counter(std::string("gfi_analog_steps_limited_by_") + limit + "_total",
                  std::string("Accepted analog steps whose size the ") + limit +
                      " bound set")
            .inc(p.stepsLimitedBy[i]);
    }
    m.gauge("gfi_analog_min_step_seconds", "Smallest accepted analog step of any run")
        .foldMinNonzero(p.minAcceptedDt);
    m.counter("gfi_bridge_atod_crossings_total", "Analog->digital threshold crossings")
        .inc(p.atodCrossings);
    m.counter("gfi_bridge_dtoa_events_total", "Digital->analog drive-level updates")
        .inc(p.dtoaEvents);

    // Per-run distributions of the deterministic resource counters.
    m.histogram("gfi_run_digital_waves", {10, 100, 1000, 10000, 100000, 1000000},
                "Delta-cycle waves per run")
        .observe(static_cast<double>(p.deltaCycles));
    m.histogram("gfi_run_analog_steps", {10, 100, 1000, 10000, 100000, 1000000},
                "Analog step attempts per run")
        .observe(static_cast<double>(p.analogAcceptedSteps + p.analogRejectedSteps));

    if (r.diagnostics.checkpointTime > 0) {
        m.counter("gfi_snapshot_skipped_fs_total",
                  "Simulated time skipped by forking from golden checkpoints")
            .inc(static_cast<std::uint64_t>(r.diagnostics.checkpointTime));
        m.counter("gfi_snapshot_resimulated_fs_total",
                  "Simulated time re-run after restoring a checkpoint")
            .inc(static_cast<std::uint64_t>(std::max<SimTime>(r.diagnostics.resimulatedTime, 0)));
    }
}

CampaignReport CampaignRunner::run(
    const std::vector<fault::FaultSpec>& faults,
    const std::function<void(std::size_t, const RunResult&)>& progress)
{
    obs::Telemetry* const tel = telemetry_; // null: every site is a no-op
    const auto campaignStart = std::chrono::steady_clock::now();

    // Static-analysis phase: a broken design or malformed fault list fails
    // here in O(1), before the golden run and before any journal restore.
    // Only the rules that can raise an error run up front: design lint, the
    // per-fault checks and, while forking, PRE006 (fork-from-golden restores
    // state through Snapshottable, so a stateful component outside it would
    // silently resume stale). When one fires, the warning-only list rules
    // (PRE005/007/008) are merged in preflightReport()'s order, so the
    // thrown report is the full one.
    if (options_.preflight) {
        obs::Span span(tel, "preflight", "campaign");
        if (!golden_) {
            golden_ = factory_(); // lint the design without running it
        }
        const auto hasErrors = [](const lint::Report& r) {
            return r.count(lint::Severity::Error) > 0;
        };
        lint::Report rep = lint::lintTestbench(*golden_); // once: it re-stamps analog parts
        const lint::Report snapshotRep =
            forking() ? lint::preflightSnapshot(*golden_) : lint::Report{};
        if (hasErrors(rep) || hasErrors(snapshotRep) ||
            std::any_of(faults.begin(), faults.end(), [&](const fault::FaultSpec& f) {
                return hasErrors(lint::preflightFault(*golden_, f));
            })) {
            rep.merge(lint::preflightCampaign(*golden_, faults));
            rep.merge(snapshotRep);
            throw lint::PreflightError(std::move(rep));
        }
    }
    {
        obs::Span span(tel, "golden", "campaign");
        if (tel != nullptr && tel->trace() != nullptr) {
            tel->trace()->nameCurrentTrack("campaign");
        }
        runGolden();
    }

    // Static fault collapsing: partition the list into provably-equivalent
    // classes; only class representatives simulate, members expand at commit
    // time. Purely structural (declared connectivity only), so the plan
    // costs microseconds even for thousands of faults.
    std::unique_ptr<analyze::CollapsePlan> plan;
    if (options_.collapse) {
        obs::Span span(tel, "collapse", "campaign");
        plan = std::make_unique<analyze::CollapsePlan>(
            analyze::collapseFaults(*golden_, faults));
        if (plan->collapsedRuns() == 0) {
            plan.reset(); // nothing to save: identical to a full campaign
        } else {
            std::fprintf(stderr, "gfi: fault collapsing: %zu fault%s -> %zu class%s\n",
                         faults.size(), faults.size() == 1 ? "" : "s", plan->classes(),
                         plan->classes() == 1 ? "" : "es");
            if (tel != nullptr) {
                tel->metrics()
                    .counter("gfi_runs_collapsed_total",
                             "Campaign runs expanded from a collapse representative "
                             "instead of simulated")
                    .inc(plan->collapsedRuns());
            }
        }
    }

    // The batch-off rules. Per-run watchdog budgets cannot be metered inside
    // a shared 64-lane word run, and fork-from-golden restores event-kernel
    // snapshots the word kernel cannot consume — either feature falls the
    // whole campaign back to the event-driven kernel, loudly.
    const WatchdogConfig& budget = options_.watchdog;
    const char* batchOff = nullptr;
    if (budget.wallClockSeconds > 0.0 || budget.digitalWaves != 0 || budget.analogSteps != 0) {
        batchOff = "per-run watchdog budgets require the event-driven kernel";
    } else if (forking()) {
        batchOff = "fork-from-golden uses event-kernel checkpoints";
    }
    const bool batching = options_.batch && batchOff == nullptr;
    if (options_.batch && batchOff != nullptr) {
        std::fprintf(stderr, "gfi: batch: disabled (%s)\n", batchOff);
    }

    // The per-index verdict table: report.runs[i] holds index i's verdict and
    // source[i] says where it comes from. The sources fill it in order —
    // journal restore, collapse expansion, the batch backend — and the
    // worker phase simulates every index still left to the event kernel.
    CampaignReport report;
    report.runs.resize(faults.size());
    std::vector<Source> source(faults.size(), Source::Kernel);

    // Journal restore reads the latest line per index of an earlier
    // (possibly killed) campaign; then collapse expansion. Both are decided
    // up front in one pass, so the worker phase only ever simulates. A fault
    // that fails preflight never gets here: the preflight phase above has
    // already thrown. The span covers the load and the pass, and only
    // campaigns that have a journal.
    CampaignJournal::LoadResult loaded;
    std::set<std::size_t> loadedIndices;
    std::size_t restored = 0;
    {
        obs::Span span(options_.journalPath.empty() ? nullptr : tel, "journal", "campaign");
        if (!options_.journalPath.empty()) {
            loaded = CampaignJournal::loadWithStats(options_.journalPath);
        }
        std::vector<JournalEntry*> latest(faults.size(), nullptr);
        for (JournalEntry& e : loaded.entries) {
            loadedIndices.insert(e.index);
            if (e.index < faults.size()) {
                latest[e.index] = &e; // later duplicates win
            }
        }
        for (std::size_t i = 0; i < faults.size(); ++i) {
            JournalEntry* e = latest[i];
            if (e != nullptr && e->faultDescription == fault::describe(faults[i])) {
                report.runs[i] = std::move(e->result); // each entry restores one index
                report.runs[i].fault = faults[i];
                // The provenance rule: a restored verdict keeps the provenance
                // of the modes this campaign runs in and drops the rest.
                // Summary footers and report keys derive from per-run
                // provenance, so a journal written in any mode resumes into
                // the report a fresh campaign in this mode prints (no "forked
                // runs" footer for a campaign that forked nothing).
                RunDiagnostics& d = report.runs[i].diagnostics;
                if (!forking()) {
                    d.checkpointTime = 0;
                    d.resimulatedTime = 0;
                }
                if (!options_.collapse) {
                    d.collapsedFrom.clear();
                }
                if (!batching) {
                    d.batchLane = 0;
                }
                if (options_.forensicsDir.empty()) {
                    d.forensic.clear();
                }
                source[i] = Source::Journal;
                ++restored;
            } else if (plan && !plan->isRepresentative(i)) {
                // Collapse-class member: its representative (an earlier
                // index) commits first, so the verdict is expanded inside the
                // ordered commit, where the representative's slot is
                // guaranteed populated.
                source[i] = Source::Expand;
            }
        }
    }
    report.journalSkippedLines = loaded.skippedLines;
    // Resume log line: operators must be able to tell a clean resume from a
    // lossy one (skipped lines mean those runs re-simulate).
    const std::size_t skipped = loaded.skippedLines;
    if (!loadedIndices.empty() || skipped > 0) {
        std::fprintf(stderr,
                     "gfi: journal %s: %zu entr%s loaded, %zu restorable, %zu "
                     "torn/corrupt line%s skipped\n",
                     options_.journalPath.c_str(), loadedIndices.size(),
                     loadedIndices.size() == 1 ? "y" : "ies", restored, skipped,
                     skipped == 1 ? "" : "s");
    }
    if (tel != nullptr && skipped > 0) {
        tel->metrics()
            .counter("gfi_journal_skipped_lines_total",
                     "Torn/corrupt journal lines skipped on resume")
            .inc(skipped);
    }
    std::unique_ptr<CampaignJournal> journal;
    if (!options_.journalPath.empty()) {
        journal = std::make_unique<CampaignJournal>(options_.journalPath);
        // With a sink attached, journal lines carry the per-run kernel deltas
        // so a resumed campaign rebuilds the same metric totals from restored
        // entries. Without one the line format stays exactly historical.
        journal->setEmbedProbes(tel != nullptr);
    }

    // Bit-parallel backend: pack the batch-eligible faults that still need
    // simulating into 64-lane word runs. Whatever the word kernel cannot
    // classify (ineligible faults, ineligible designs, cross-check fallbacks)
    // stays with the event kernel. Lane assignment ignores restoration
    // status, so journals of interrupted batched campaigns resume with
    // identical batch_lane keys.
    std::size_t batchedPlanned = 0;
    if (batching) {
        obs::Span span(tel, "batch", "campaign");
        batch::BatchRequest breq;
        breq.factory = &factory_;
        breq.golden = golden_.get();
        breq.goldenState = &goldenState_;
        breq.goldenWaves = golden_->sim().digital().scheduler().deltaCycles();
        if (golden_->sim().elaborated()) {
            const auto& stats = golden_->sim().solver().stats();
            breq.goldenAnalogSteps = stats.acceptedSteps + stats.rejectedSteps;
        }
        breq.faults = &faults;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (fault::isGolden(faults[i]) || (plan && !plan->isRepresentative(i))) {
                continue;
            }
            breq.candidates.push_back(i);
            breq.needSim.push_back(source[i] == Source::Kernel ? 1 : 0);
        }
        breq.tolerance = options_.tolerance;
        breq.workers = options_.workers;
        breq.recordTiming = options_.recordTiming;
        std::map<std::size_t, RunResult> batched;
        const batch::BatchStats bstats = batch::runBatchedCampaign(breq, batched);
        for (auto& [i, r] : batched) {
            report.runs[i] = std::move(r);
            source[i] = Source::Batch;
        }
        batchedPlanned = batched.size();
        if (!bstats.designEligible) {
            std::fprintf(stderr, "gfi: batch: event-driven fallback (%s)\n",
                         bstats.designReason.c_str());
        } else if (bstats.groups > 0 || !bstats.fallbacks.empty()) {
            std::fprintf(stderr,
                         "gfi: batch: %zu run%s word-simulated in %zu group%s, %zu "
                         "event-driven fallback%s\n",
                         bstats.batched, bstats.batched == 1 ? "" : "s", bstats.groups,
                         bstats.groups == 1 ? "" : "s", bstats.fallbacks.size(),
                         bstats.fallbacks.size() == 1 ? "" : "s");
        }
        if (bstats.crossCheckFailures > 0) {
            std::fprintf(stderr,
                         "gfi: batch: %zu group%s failed the golden cross-check and "
                         "re-ran event-driven\n",
                         bstats.crossCheckFailures,
                         bstats.crossCheckFailures == 1 ? "" : "s");
        }
        if (tel != nullptr && bstats.batched > 0) {
            tel->metrics()
                .counter("gfi_runs_batched_total",
                         "Campaign runs classified by the bit-parallel word kernel")
                .inc(bstats.batched);
        }
    }

    // Worker phase: simulations run concurrently, commits (journal append,
    // live counters, progress callback, report slot) run serialized in
    // fault-list order — byte-identical observable output at any width.
    core::Executor exec(options_.workers);
    activeWorkers_ = exec.effectiveWorkers();

    // Live progress stream (NDJSON). Counts are cumulative across the whole
    // campaign — journal-restored runs included — so a resumed campaign
    // reports restored + new, never from zero; throughput and ETA come from
    // newly executed (simulated or word-batched) runs only. All emission
    // happens on the serialized commit path plus the start/done bookends, so
    // the counters need no synchronization of their own.
    std::map<Outcome, int> outcomes;        ///< committed-run outcome counts
    std::array<std::size_t, 4> bySource{}; ///< committed runs per verdict source
    std::size_t completed = 0;              ///< committed runs, restored included
    const auto committed = [&bySource](Source s) {
        return bySource[static_cast<std::size_t>(s)];
    };
    const auto progressStart = std::chrono::steady_clock::now();
    auto lastBeat = progressStart;
    const auto emitProgress = [&](const char* event, const std::string& extra = "") {
        if (!progressSink_) {
            return;
        }
        std::string line = "{\"event\": \"" + std::string(event) + "\"";
        line += ", \"completed\": " + std::to_string(completed);
        line += ", \"total\": " + std::to_string(faults.size());
        line += ", \"outcomes\": {";
        bool first = true;
        for (Outcome o : kAllOutcomes) {
            const auto it = outcomes.find(o);
            line += std::string(first ? "" : ", ") + "\"" + toString(o) +
                    "\": " + std::to_string(it != outcomes.end() ? it->second : 0);
            first = false;
        }
        line += "}";
        line += ", \"restored\": " + std::to_string(committed(Source::Journal));
        line += ", \"batched\": " + std::to_string(committed(Source::Batch));
        line += ", \"collapsed\": " + std::to_string(committed(Source::Expand));
        line += ", \"workers\": " + std::to_string(activeWorkers_);
        // With timing recording off, elapsed is pinned to 0 and the derived
        // rate/ETA fields are omitted, so the stream is byte-deterministic.
        const double elapsed =
            options_.recordTiming
                ? std::chrono::duration<double>(std::chrono::steady_clock::now() - progressStart)
                      .count()
                : 0.0;
        line += ", \"elapsed_s\": " + formatDouble(elapsed, 3);
        const std::size_t executed = committed(Source::Kernel) + committed(Source::Batch);
        if (elapsed > 0.0 && executed > 0) {
            const double rate = static_cast<double>(executed) / elapsed;
            line += ", \"runs_per_s\": " + formatDouble(rate, 3);
            if (completed < faults.size()) {
                line += ", \"eta_s\": " +
                        formatDouble(static_cast<double>(faults.size() - completed) / rate, 3);
            }
        }
        line += extra;
        line += "}\n";
        progressSink_(line);
    };
    emitProgress("start", ", \"restorable\": " + std::to_string(restored) +
                              ", \"collapsed_planned\": " +
                              std::to_string(plan ? plan->collapsedRuns() : 0) +
                              ", \"batched_planned\": " + std::to_string(batchedPlanned));

    // Convergence exit: golden's plan for the faults that stop acting before
    // the end, recorded on a testbench that then joins the pool (the first
    // pooled attempt would have built it). A twin that does not replay
    // golden exactly — a testbench whose run() is more than
    // sim().run(duration()) — leaves the campaign without a plan.
    std::vector<SimTime> lastActions;
    for (std::size_t i = 0; i < faults.size() && preStart_; ++i) {
        if (source[i] == Source::Kernel) {
            if (const std::optional<SimTime> last = lastActionTime(faults[i])) {
                lastActions.push_back(*last);
            }
        }
    }
    if (!lastActions.empty()) {
        obs::Span span(tel, "convergence plan", "campaign");
        std::unique_ptr<fault::Testbench> twin = factory_();
        auto recorded = std::make_shared<const ams::ConvergencePlan>(ams::ConvergencePlan::record(
            twin->sim(), golden_->duration(), std::move(lastActions)));
        if (twin->sim().canonicalState() == golden_->sim().canonicalState() &&
            sameDigitalTraces(twin->recorder(), golden_->recorder())) {
            convergence_ = std::move(recorded);
        }
        pool_.push_back(std::move(twin));
    }

    pooling_ = preStart_ != nullptr;
    const auto drainPool = [this] {
        pooling_ = false;
        pool_.clear();
        convergence_.reset();
    };
    try {
        exec.forEachOrdered(faults.size(), [&](std::size_t i) -> core::CommitFn {
            if (source[i] == Source::Kernel) {
                if (tel != nullptr && tel->trace() != nullptr) {
                    tel->trace()->nameCurrentTrack(
                        "worker " + std::to_string(obs::TraceWriter::currentTrackId()));
                }
                obs::Span span(tel, "run #" + std::to_string(i), "campaign");
                report.runs[i] = runContained(faults[i]);
                span.setArgs("{\"fault\": \"" + util::jsonEscape(fault::describe(faults[i])) +
                             "\", \"outcome\": \"" + toString(report.runs[i].outcome) + "\"}");
            }
            return [&, i] {
                RunResult& r = report.runs[i];
                if (source[i] == Source::Expand) {
                    r = expandCollapsed(report.runs[plan->repOf[i]], faults[i]);
                }
                if (journal && source[i] != Source::Journal) {
                    journal->append(i, r);
                }
                ++outcomes[r.outcome];
                ++completed;
                ++bySource[static_cast<std::size_t>(source[i])];
                // Commit-order metric application: counters only see the
                // deterministic per-run deltas, so totals match at any
                // worker width; restored entries re-apply their journaled
                // deltas, reproducing the interrupted campaign's telemetry.
                recordRunMetrics(r);
                if (progress) {
                    progress(i, r);
                }
                if (progressSink_) {
                    const auto beatNow = std::chrono::steady_clock::now();
                    if (progressCadence_ <= 0.0 ||
                        std::chrono::duration<double>(beatNow - lastBeat).count() >=
                            progressCadence_) {
                        lastBeat = beatNow;
                        emitProgress("heartbeat");
                    }
                }
            };
        });
    } catch (...) {
        activeWorkers_ = 1;
        drainPool();
        throw;
    }
    drainPool();
    emitProgress("done");
    const unsigned usedWorkers = activeWorkers_;
    activeWorkers_ = 1;

    if (tel != nullptr) {
        // Campaign-level readings. The checkpoint counters bill only what
        // is new since the last billing (captures once, lookups since then),
        // so repeated campaigns on one runner accumulate without double
        // counting.
        obs::MetricsRegistry& m = tel->metrics();
        m.counter("gfi_snapshot_checkpoints_total", "Golden checkpoints captured")
            .inc(checkpointsBilled_ ? 0 : checkpoints_.size());
        checkpointsBilled_ = true;
        m.counter("gfi_snapshot_checkpoint_hits_total",
                  "Fork lookups that found a usable golden checkpoint")
            .inc(forkHits_.exchange(0, std::memory_order_relaxed));
        m.counter("gfi_snapshot_checkpoint_misses_total",
                  "Fork lookups with no checkpoint before the injection time")
            .inc(forkMisses_.exchange(0, std::memory_order_relaxed));
        std::uint64_t bytes = 0;
        for (const auto& cp : checkpoints_) {
            bytes += cp->bytes.size();
        }
        m.gauge("gfi_snapshot_bytes", "Serialized bytes held by the checkpoint store")
            .set(static_cast<double>(bytes));
        m.gauge("gfi_campaign_workers", "Resolved worker-thread count of the last campaign")
            .set(static_cast<double>(usedWorkers));
        m.gauge("gfi_campaign_wall_seconds", "Wall-clock time of the last campaign")
            .set(std::chrono::duration<double>(std::chrono::steady_clock::now() - campaignStart)
                     .count());
        tel->flush();
    }
    return report;
}

} // namespace gfi::campaign
