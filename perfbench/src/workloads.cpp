#include "workloads.hpp"

#include "fault_list_common.hpp"
#include "pll_bench_common.hpp"

#include "analyze/collapse.hpp"
#include "io/golden_store.hpp"
#include "io/ingest.hpp"
#include "io/netlist.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace gfi::perfbench {

namespace {

using Clock = SpanLog::Clock;

/// The engine features a campaign turns on.
struct Mode {
    SimTime forkCadence = 0; ///< fork-from-golden checkpoint cadence; 0 = scratch
    bool batch = false;
    bool collapse = false;
};

/// Applies @p mode explicitly, so no GFI_* environment knob can change it.
/// Reference campaigns journal their verdicts into the setup's directory.
void configure(campaign::CampaignRunner& runner, const Mode& mode, const CampaignSetup& setup)
{
    runner.setWorkers(setup.workers);
    runner.setCheckpointCadence(mode.forkCadence > 0 ? mode.forkCadence : -1);
    runner.setBatchBackend(mode.batch);
    runner.setFaultCollapsing(mode.collapse);
    runner.setForensics("");
    if (setup.reference) {
        runner.setJournalPath(journalPath(setup.dir));
    }
}

double secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// The wall and CPU clocks at the start of a campaign.
struct Start {
    Clock::time_point wall = Clock::now();
    double cpu = processCpuSeconds();
};

/// Closes a campaign's timeline: set-up ends at the tally's mark (the whole
/// campaign when nothing ran past set-up).
void stamp(CampaignOutcome& out, const Start& t0, const Tally& tally)
{
    const Clock::time_point t1 = Clock::now();
    out.totalCpuSeconds = processCpuSeconds() - t0.cpu;
    out.totalSeconds = secondsBetween(t0.wall, t1);
    if (tally.setupEnded()) {
        out.setupSeconds = secondsBetween(t0.wall, tally.setupEnd());
        out.setupCpuSeconds = tally.setupEndCpu() - t0.cpu;
    } else {
        out.setupSeconds = out.totalSeconds;
        out.setupCpuSeconds = out.totalCpuSeconds;
    }
}

/// A tracing telemetry sink attached to the runner of a traced campaign; a
/// no-op wrapper for untraced ones.
class RunnerTrace {
public:
    explicit RunnerTrace(const CampaignSetup& setup) : spans_(setup.spans)
    {
        if (spans_ != nullptr) {
            telemetry_ = std::make_unique<obs::Telemetry>();
            telemetry_->enableTracing();
            epoch_ = Clock::now();
        }
    }

    /// runner.run(faults) inside a "CampaignRunner::run" span, with the
    /// runner's own spans imported beneath it.
    campaign::CampaignReport run(campaign::CampaignRunner& runner,
                                 const std::vector<fault::FaultSpec>& faults,
                                 const std::string& simulateLayer)
    {
        if (spans_ == nullptr) {
            return runner.run(faults);
        }
        runner.setTelemetry(*telemetry_);
        campaign::CampaignReport report;
        int id = -1;
        {
            SpanLog::Scope span(spans_, "CampaignRunner::run", "core");
            id = span.id();
            report = runner.run(faults);
        }
        const std::map<std::string, std::string> layerOf{
            {"preflight", "lint"},  {"golden", "core"},    {"collapse", "analyze"},
            {"batch", "batch"},     {"run", "core"},       {"build", "core"},
            {"restore", "snapshot"}, {"simulate", simulateLayer}, {"classify", "trace"}};
        spans_->importRunnerTrace(telemetry_->trace()->json(), epoch_, id, layerOf);
        return report;
    }

private:
    SpanLog* spans_;
    std::unique_ptr<obs::Telemetry> telemetry_;
    Clock::time_point epoch_;
};

/// Golden-side readings every campaign reports.
void readGolden(const campaign::CampaignRunner& runner, CampaignOutcome& out)
{
    out.checkpoints = runner.checkpointCount();
    const trace::Recorder& rec = runner.golden().recorder();
    std::size_t points = 0;
    for (const auto& [name, t] : rec.analogTraces()) {
        points += t.samples.size();
    }
    for (const auto& [name, t] : rec.digitalTraces()) {
        points += t.events.size();
    }
    out.goldenSamples = points;
}

/// Direct calls into the collapse and batch layers with the campaign's own
/// golden run, for the counts run() keeps to itself (classes, BatchStats).
/// @p factory must not bill the campaign's tally.
void probeLayers(const campaign::CampaignRunner& runner,
                 const std::vector<fault::FaultSpec>& faults, const Mode& mode,
                 unsigned workers, const fault::TestbenchFactory& factory, LayerProbe& probe)
{
    const fault::Testbench& golden = runner.golden();
    if (mode.collapse) {
        probe.collapseClasses = analyze::collapseFaults(golden, faults).classes();
    }
    if (!mode.batch) {
        return;
    }
    std::map<std::string, std::uint64_t> goldenState;
    for (const std::string& name : golden.observedState()) {
        goldenState[name] = golden.sim().digital().instrumentation().hook(name).get();
    }
    const obs::ProbeSnapshot p = golden.sim().sampleProbes();
    batch::BatchRequest req;
    req.factory = &factory;
    req.golden = &golden;
    req.goldenState = &goldenState;
    req.goldenWaves = p.deltaCycles;
    req.goldenAnalogSteps = p.analogAcceptedSteps + p.analogRejectedSteps;
    req.faults = &faults;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (!fault::isGolden(faults[i])) {
            req.candidates.push_back(i);
            req.needSim.push_back(1);
        }
    }
    req.tolerance = runner.tolerance();
    req.workers = workers;
    std::map<std::size_t, campaign::RunResult> results;
    probe.batch = batch::runBatchedCampaign(req, results);
}

// --- pll_pulse_fork ---------------------------------------------------------

/// The paper's case study: current pulses on the PLL's filter input and VCO
/// output after lock, both pulse models, plus PFD/divider bit flips, with
/// fork-from-golden on. The first four faults are fixed-shape anchors for
/// the paper's findings (Fig. 6 and Fig. 8).
class PllPulseFork final : public Workload {
public:
    static constexpr SimTime kCadence = 2 * kMicrosecond;
    static constexpr int kRandomPulses = 8;
    static constexpr int kBitFlips = 3;

    explicit PllPulseFork(std::uint64_t seed)
    {
        cfg_.duration = 116 * kMicrosecond;
        Rng rng(seed);
        // Every injection falls between the same two checkpoints (102 and
        // 104 us), so every forked run re-simulates the same 14 us suffix
        // and seeds differ in pulse shapes and instants, not in run length.
        const auto afterLock = [&rng] { return rng.uniform(102.1e-6, 103.9e-6); };
        const auto trap = [](double pa, double rt, double ft, double pw) {
            return std::make_shared<fault::TrapezoidPulse>(pa, rt, ft, pw);
        };

        // Anchors at one instant: PA low/high at a fixed PW, then a wider
        // PW at the low PA, then the Fig. 6 pulse (10 mA, 500 ps).
        const double tAnchor = afterLock();
        const double paLow = rng.uniform(2e-3, 4e-3);
        const double paHigh = rng.uniform(8e-3, 10e-3);
        for (const auto& shape : {trap(paLow, 100e-12, 100e-12, 300e-12),
                                  trap(paHigh, 100e-12, 100e-12, 300e-12),
                                  trap(paLow, 100e-12, 100e-12, 540e-12),
                                  trap(10e-3, 100e-12, 300e-12, 500e-12)}) {
            faults_.emplace_back(fault::CurrentPulseFault{pll::names::kSabFilter, tAnchor, shape});
        }

        // Fig. 7/8 ranges: PA 2-10 mA, RT/FT 40-180 ps, PW 120-540 ps, with
        // RT + FT within PW as the trapezoid requires. Targets and pulse
        // models alternate, so every seed has the same mix.
        for (int i = 0; i < kRandomPulses; ++i) {
            const char* sab = i % 2 == 0 ? pll::names::kSabFilter : pll::names::kSabVcoOut;
            const double pa = rng.uniform(2e-3, 10e-3);
            const double pw = rng.uniform(120e-12, 540e-12);
            const double rt = rng.uniform(40e-12, std::min(180e-12, pw / 2));
            const double ft = rng.uniform(40e-12, std::min(180e-12, pw / 2));
            const auto t = trap(pa, rt, ft, pw);
            std::shared_ptr<const fault::PulseShape> shape = t;
            if (i / 2 % 2 == 1) {
                shape = std::make_shared<fault::DoubleExpPulse>(fault::fitDoubleExp(*t));
            }
            faults_.emplace_back(fault::CurrentPulseFault{sab, afterLock(), shape});
        }

        const pll::PllTestbench probe(cfg_);
        std::vector<const digital::StateHook*> hooks;
        for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
            hooks.push_back(&hook);
        }
        for (int i = 0; i < kBitFlips && !hooks.empty(); ++i) {
            const digital::StateHook& h = *hooks[static_cast<std::size_t>(i) % hooks.size()];
            faults_.emplace_back(fault::BitFlipFault{
                h.name, static_cast<int>(rng.below(static_cast<std::uint64_t>(h.width))),
                fromSeconds(afterLock())});
        }
    }

    const std::vector<fault::FaultSpec>& faults() const override { return faults_; }
    SimTime duration() const override { return cfg_.duration; }
    std::string simulateLayer() const override { return "analog"; }

    CampaignOutcome runCampaign(const CampaignSetup& setup) override
    {
        const Mode mode = setup.reference ? Mode{} : Mode{kCadence, false, false};
        CampaignOutcome out;
        auto tally = std::make_shared<Tally>();
        const Start t0;
        {
            RunnerTrace trace(setup);
            campaign::CampaignRunner runner(meteredFactory<pll::PllTestbench>(tally, cfg_),
                                            bench::pllTolerance());
            configure(runner, mode, setup);
            out.reports.push_back(trace.run(runner, faults_, simulateLayer()));
            stamp(out, t0, *tally);
            readGolden(runner, out);
        }
        out.kernel = tally->counts();
        return out;
    }

    std::string checkFindings(const campaign::CampaignReport& r) const override
    {
        const auto dev = [&r](std::size_t i) { return r.runs.at(i).maxAnalogDeviation; };
        if (!(dev(1) > dev(0))) {
            return "peak dV_ctrl does not grow with PA at a fixed PW";
        }
        if (!(dev(2) > dev(0))) {
            return "peak dV_ctrl does not grow with PW at a fixed PA";
        }
        const campaign::RunResult& fig6 = r.runs.at(3);
        const SimTime span = fig6.lastOutputErrorEnd - fig6.firstOutputError;
        if (fig6.firstOutputError < 0 || span <= cfg_.nominalOutputPeriod()) {
            return "the 500 ps pulse does not perturb more than one clock cycle";
        }
        return {};
    }

private:
    pll::PllConfig cfg_;
    std::vector<fault::FaultSpec> faults_;
};

// --- digital_batch ----------------------------------------------------------

/// A dense DigitalDut SEU sweep for the bit-parallel backend: the shared
/// perf_batch population (bit flips on every state hook, stuck-ats on every
/// saboteur), seeded in order and timing and cut to whole 63-lane groups,
/// with one timing-dependent SET pulse per 16 faults for the event kernel.
class DigitalBatch final : public Workload {
public:
    static constexpr std::size_t kWordFaults = 8 * 63;

    explicit DigitalBatch(std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<fault::FaultSpec> pool = bench::digitalDutBatchFaults(kWordFaults, cfg_.duration);
        for (std::size_t i = pool.size(); i > 1; --i) {
            std::swap(pool[i - 1], pool[rng.below(i)]);
        }
        pool.resize(kWordFaults);
        const duts::DigitalDutTestbench probe(cfg_);
        const std::vector<std::string> sabs = probe.digitalSaboteurNames();
        for (fault::FaultSpec& f : pool) {
            const SimTime jitter = rng.range(0, 30) * kNanosecond;
            std::visit(
                [jitter](auto& x) {
                    if constexpr (requires { x.time; }) {
                        x.time += jitter;
                    }
                },
                f);
            faults_.push_back(std::move(f));
            if (faults_.size() % 16 == 15) {
                faults_.emplace_back(fault::DigitalPulseFault{
                    sabs[rng.below(sabs.size())],
                    rng.range(cfg_.duration / 4, 3 * cfg_.duration / 4),
                    rng.range(1, 5) * kNanosecond});
            }
        }
    }

    const std::vector<fault::FaultSpec>& faults() const override { return faults_; }
    SimTime duration() const override { return cfg_.duration; }

    CampaignOutcome runCampaign(const CampaignSetup& setup) override
    {
        const Mode mode = setup.reference ? Mode{} : Mode{0, true, false};
        CampaignOutcome out;
        auto tally = std::make_shared<Tally>();
        const Start t0;
        {
            RunnerTrace trace(setup);
            campaign::CampaignRunner runner(meteredFactory<duts::DigitalDutTestbench>(tally, cfg_));
            configure(runner, mode, setup);
            out.reports.push_back(trace.run(runner, faults_, simulateLayer()));
            stamp(out, t0, *tally);
            readGolden(runner, out);
            if (setup.probeLayers) {
                probeLayers(runner, faults_, mode, setup.workers,
                            meteredFactory<duts::DigitalDutTestbench>(std::make_shared<Tally>(),
                                                                      cfg_),
                            out.probe);
            }
        }
        out.kernel = tally->counts();
        return out;
    }

private:
    duts::DigitalDutConfig cfg_;
    std::vector<fault::FaultSpec> faults_;
};

// --- netlist_event / netlist_replay -----------------------------------------

/// Seeded layered ISCAS-85 circuit as .bench text, in the shape of
/// perf_ingest's generator: every layer reads the previous one (gate g reads
/// net g first, so no net dangles) plus one seeded second input, and gate
/// kinds cycle through the two-input grammar, so seeds change the wiring but
/// not the gate mix. A few spare gates per layer form an unobserved cone,
/// whose faults the collapser folds into one masked class.
std::string layeredBenchText(std::uint64_t seed)
{
    constexpr int kInputs = 16;
    constexpr int kLayers = 12;
    constexpr int kWidth = 20; // observed gates per layer
    constexpr int kSpare = 2;  // unobserved gates per layer: 264 gates in all
    const char* kinds[] = {"AND", "OR", "XOR", "NAND", "NOR", "XNOR"};
    Rng rng(seed);
    std::ostringstream out;
    out << "# perfbench layered netlist, seed " << seed << "\n";
    for (int i = 0; i < kInputs; ++i) {
        out << "INPUT(i" << i << ")\n";
    }
    for (int g = 0; g < kWidth; ++g) {
        out << "OUTPUT(L" << (kLayers - 1) << "_" << g << ")\n";
    }
    const auto name = [](char kind, int layer, int k) {
        std::string n(1, kind);
        n += std::to_string(layer);
        n += '_';
        n += std::to_string(k);
        return n;
    };
    for (int l = 0; l < kLayers; ++l) {
        const int prevWidth = l == 0 ? kInputs : kWidth;
        const auto prev = [&](int k) {
            if (l > 0) {
                return name('L', l - 1, k);
            }
            std::string input = "i";
            input += std::to_string(k);
            return input;
        };
        const auto pick = [&] { return static_cast<int>(rng.below(static_cast<std::uint64_t>(prevWidth))); };
        for (int g = 0; g < kWidth; ++g) {
            const int a = g % prevWidth;
            int b = pick();
            if (b == a) {
                b = (b + 1) % prevWidth;
            }
            out << name('L', l, g) << " = " << kinds[(l + g) % 6] << "(" << prev(a) << ", "
                << prev(b) << ")\n";
        }
        for (int k = 0; k < kSpare; ++k) {
            const std::string a = l == 0 ? prev(pick()) : name('S', l - 1, k);
            out << name('S', l, k) << " = " << kinds[(l + k) % 6] << "(" << a << ", "
                << prev(pick()) << ")\n";
        }
    }
    return out.str();
}

/// A generated netlist through parse -> elaboration -> campaign with
/// collapse on and the event kernel, journaling and recording into a
/// golden store.
class NetlistEvent : public Workload {
public:
    static constexpr const char* kSource = "perfbench.bench";
    static constexpr Mode kMode{0, false, true};

    explicit NetlistEvent(std::uint64_t seed) : text_(layeredBenchText(seed))
    {
        config_.patternCount = 16;
        config_.patternSeed = seed;
        options_.setPulses = true;
        workload_ = io::makeWorkload(io::parseNetlist(text_, kSource), config_, options_);
    }

    const std::vector<fault::FaultSpec>& faults() const override { return workload_.faults; }
    SimTime duration() const override { return config_.patternCount * config_.patternPeriod; }

    std::string verdictText(const campaign::CampaignReport& r) const override
    {
        return io::renderAnsText(workload_, r);
    }

    CampaignOutcome runCampaign(const CampaignSetup& setup) override
    {
        const Mode mode = setup.reference ? Mode{} : kMode;
        CampaignOutcome out;
        auto tally = std::make_shared<Tally>();
        const Start t0;
        {
            const io::IngestWorkload wl = ingest(setup);
            RunnerTrace trace(setup);
            campaign::CampaignRunner runner(factory(tally, wl));
            configure(runner, mode, setup);
            runner.setJournalPath(journalPath(setup.dir));
            out.reports.push_back(trace.run(runner, wl.faults, simulateLayer()));
            if (!setup.reference) {
                SpanLog::Scope span(setup.spans, "GoldenStore::put", "io");
                io::GoldenStore store(setup.dir + "/store");
                store.put(io::CacheKey::of(wl), wl.netlist->name, out.reports.back());
            }
            stamp(out, t0, *tally);
            readGolden(runner, out);
            if (setup.probeLayers) {
                probeLayers(runner, wl.faults, mode, setup.workers,
                            factory(std::make_shared<Tally>(), wl), out.probe);
            }
        }
        out.kernel = tally->counts();
        return out;
    }

protected:
    /// Parse and elaboration of the generated text: the io layer's work.
    io::IngestWorkload ingest(const CampaignSetup& setup) const
    {
        io::NetlistDesc desc;
        {
            SpanLog::Scope span(setup.spans, "io::parseNetlist", "io");
            desc = io::parseNetlist(text_, kSource);
        }
        SpanLog::Scope span(setup.spans, "io::makeWorkload", "io");
        return io::makeWorkload(std::move(desc), config_, options_);
    }

    static fault::TestbenchFactory factory(const std::shared_ptr<Tally>& tally,
                                           const io::IngestWorkload& wl)
    {
        return meteredFactory<io::IngestTestbench>(tally, wl.netlist, wl.patterns, wl.config);
    }

private:
    std::string text_;
    io::IngestConfig config_;
    io::FaultListOptions options_;
    io::IngestWorkload workload_; ///< parsed once up front: fault list, digests
};

/// The netlist_event campaign answered from its own records: resume from
/// the complete journal (nothing left to simulate), then a warm golden-store
/// hit. prepare() runs the recording campaign once.
class NetlistReplay final : public NetlistEvent {
public:
    using NetlistEvent::NetlistEvent;

    void prepare(const std::string& dir) override
    {
        records_ = dir + "/records";
        std::filesystem::create_directories(records_);
        CampaignSetup setup;
        setup.dir = records_;
        NetlistEvent::runCampaign(setup);
    }

    CampaignOutcome runCampaign(const CampaignSetup& setup) override
    {
        if (setup.reference) {
            return NetlistEvent::runCampaign(setup);
        }
        if (records_.empty()) {
            throw std::logic_error("netlist_replay: prepare() has not run");
        }
        CampaignOutcome out;
        auto tally = std::make_shared<Tally>();
        const Start t0;
        {
            const io::IngestWorkload wl = ingest(setup);
            RunnerTrace trace(setup);
            campaign::CampaignRunner runner(factory(tally, wl));
            configure(runner, kMode, setup);
            runner.setJournalPath(journalPath(records_));
            out.reports.push_back(trace.run(runner, wl.faults, simulateLayer()));

            campaign::CampaignRunner cachedRunner(factory(tally, wl));
            configure(cachedRunner, kMode, setup);
            io::GoldenStore store(records_ + "/store");
            io::CachedCampaign cached;
            {
                SpanLog::Scope span(setup.spans, "io::runCampaignCached", "io");
                cached = io::runCampaignCached(cachedRunner, wl, store);
            }
            if (!cached.hit) {
                throw std::runtime_error("netlist_replay: the golden store missed");
            }
            out.reports.push_back(std::move(cached.report));
            stamp(out, t0, *tally);
            readGolden(runner, out);
            if (setup.probeLayers) {
                probeLayers(runner, wl.faults, kMode, setup.workers,
                            factory(std::make_shared<Tally>(), wl), out.probe);
            }
        }
        out.kernel = tally->counts();
        return out;
    }

private:
    std::string records_;
};

} // namespace

std::string journalPath(const std::string& dir)
{
    return dir + "/campaign.journal.jsonl";
}

std::string Workload::verdictText(const campaign::CampaignReport& r) const
{
    std::string out = "# perfbench verdicts v1\n";
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
        out += std::to_string(i) + '\t' + fault::describe(r.runs[i].fault) + '\t' +
               campaign::toString(r.runs[i].outcome) + '\n';
    }
    return out;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "pll_pulse_fork") {
        return std::make_unique<PllPulseFork>(seed);
    }
    if (name == "digital_batch") {
        return std::make_unique<DigitalBatch>(seed);
    }
    if (name == "netlist_event") {
        return std::make_unique<NetlistEvent>(seed);
    }
    if (name == "netlist_replay") {
        return std::make_unique<NetlistReplay>(seed);
    }
    return nullptr;
}

} // namespace gfi::perfbench
