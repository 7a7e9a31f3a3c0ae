// One option-matrix harness for the campaign runner's execution modes.
//
// The contract under test: every execution mode yields the same verdict
// bytes. Each design runs through workers {1, 4} x batch x collapse x fork x
// resume-at-half x watchdog budget — 64 cells. Every cell must be
// byte-identical (journal, summary, detail, JSON, CSV) to the reference of
// its effective mode, where batch counts as off under fork or a watchdog
// budget (either falls the campaign back to the event kernel), and every
// cell's detail table must equal the plain campaign's. The four references
// (one worker, batch x collapse) are cross-checked against each other: the
// batch backend may add only lane provenance, collapsing only expansion
// provenance.
//
// The watchdog budget is generous — it never trips — so it changes nothing
// but the batch decision. A resumed cell journals the first half of the
// fault list, then reruns the whole list on that journal.
//
// Every cell also counts what it simulated: each run() call of a Counted
// testbench, which must equal the golden run plus every attempt of an
// event-kernel verdict, and each factory build, which must stay within one
// per worker plus the fresh-path attempts (exactly so at one worker) — the
// digital designs re-run pooled testbenches. A fresh-bench oracle (factory,
// arm, run, classify per fault, nothing pooled) pins the plain reference.
//
// Also here: journals written in one mode and resumed in another (the
// runner's provenance rule), and a campaign that ignores its process
// environment.

#include "campaign_harness.hpp"

#include "adc/sar.hpp"
#include "analog/passive.hpp"
#include "analog/sources.hpp"
#include "duts/chain_dut.hpp"
#include "duts/cpu_system.hpp"
#include "duts/digital_dut.hpp"
#include "io/ingest.hpp"
#include "pll/pll.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <regex>
#include <thread>
#include <utility>

namespace gfi::campaign {
namespace {

using test::CampaignOutput;
using RunCounter = std::shared_ptr<std::atomic<int>>;

/// One design of the matrix with its fault list and mode parameters.
struct Design {
    /// A factory stamping out the design's testbenches as test::Counted,
    /// counting their run() calls into the given counter.
    std::function<fault::TestbenchFactory(RunCounter)> counted;
    fault::TestbenchFactory factory; ///< counted() into a throwaway counter
    std::vector<fault::FaultSpec> faults;
    SimTime forkCadence = 0;
    RetryPolicy retry;
    bool expectCheckpoints = true; ///< fork mode captures golden checkpoints
    bool expectLanes = false;      ///< the batch reference word-simulates runs
    bool expectCollapse = false;   ///< the collapse reference expands runs
    bool expectPooling = false;    ///< first attempts re-run pooled testbenches
    bool expectConvergence = false; ///< some event-kernel run rejoins golden
};

/// Sets both factories of @p d to build test::Counted<Tb>(runs, args...).
template <typename Tb, typename... Args>
void setFactories(Design& d, Args... args)
{
    d.counted = [args...](RunCounter runs) -> fault::TestbenchFactory {
        return [runs, args...]() -> std::unique_ptr<fault::Testbench> {
            return std::make_unique<test::Counted<Tb>>(runs, args...);
        };
    };
    d.factory = d.counted(std::make_shared<std::atomic<int>>(0));
}

// ---------------------------------------------------------------------------
// Designs

/// Same-instant SET pulses and stuck-ats along the zero-delay chain (they
/// collapse), the dead branch (statically masked), bit flips on every state
/// hook and stuck-ats on every saboteur (they batch).
Design chainDesign()
{
    Design d;
    setFactories<duts::ChainDutTestbench>(d);
    d.faults.emplace_back(fault::FaultSpec{});
    for (const std::string& sab : duts::ChainDutTestbench::chainSaboteurs()) {
        d.faults.emplace_back(fault::DigitalPulseFault{sab, kMicrosecond, 2 * kNanosecond});
        d.faults.emplace_back(
            fault::StuckAtFault{sab, digital::Logic::One, kMicrosecond, 40 * kNanosecond});
    }
    const std::string dead = duts::ChainDutTestbench::deadSaboteur();
    d.faults.emplace_back(fault::DigitalPulseFault{dead, kMicrosecond, 2 * kNanosecond});
    d.faults.emplace_back(fault::StuckAtFault{dead, digital::Logic::Zero, kMicrosecond, 0});
    const duts::ChainDutTestbench probe;
    const SimTime t = 800 * kNanosecond + 3 * kNanosecond;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        d.faults.emplace_back(fault::BitFlipFault{name, 0, t});
        if (hook.width > 1) {
            d.faults.emplace_back(
                fault::BitFlipFault{name, hook.width - 1, t + 60 * kNanosecond});
        }
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        d.faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
        d.faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::Zero,
                                                  t + 20 * kNanosecond, 150 * kNanosecond});
    }
    d.forkCadence = 200 * kNanosecond;
    d.expectLanes = true;
    d.expectCollapse = true;
    d.expectPooling = true;
    return d;
}

/// Every registered digital fault kind on the DigitalDut — bit flips across
/// all state hooks, double flips, state writes, stuck-ats and SET pulses on
/// every saboteur, an FSM transition corruption. A stuck-at-X is
/// batch-ineligible and must fall back per fault while its neighbours
/// batch. The DUT observes its whole cone, so nothing collapses.
Design digitalDesign()
{
    Design d;
    setFactories<duts::DigitalDutTestbench>(d);
    d.faults.emplace_back(fault::FaultSpec{});
    const duts::DigitalDutTestbench probe;
    const SimTime t = 2 * kMicrosecond + 7 * kNanosecond;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        d.faults.emplace_back(fault::BitFlipFault{name, 0, t});
        if (hook.width > 1) {
            d.faults.emplace_back(
                fault::BitFlipFault{name, hook.width - 1, t + 40 * kNanosecond});
            d.faults.emplace_back(
                fault::BitFlipFault{name, hook.width - 1, 3 * kMicrosecond + 13 * kNanosecond});
            d.faults.emplace_back(
                fault::DoubleBitFlipFault{name, 0, hook.width - 1, t + 11 * kNanosecond});
        }
        d.faults.emplace_back(fault::StateWriteFault{name, 0x2A, t + 23 * kNanosecond});
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        d.faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
        d.faults.emplace_back(
            fault::StuckAtFault{sab, digital::Logic::Zero, t, 300 * kNanosecond});
        d.faults.emplace_back(fault::DigitalPulseFault{sab, t, 25 * kNanosecond});
    }
    d.faults.emplace_back(fault::StuckAtFault{probe.digitalSaboteurNames().front(),
                                              digital::Logic::X, t, 200 * kNanosecond});
    d.faults.emplace_back(fault::FsmTransitionFault{"dut/fsm", 3, t + 5 * kNanosecond});
    d.forkCadence = 500 * kNanosecond;
    d.retry = RetryPolicy{.maxAttempts = 2};
    d.expectLanes = true;
    d.expectPooling = true;
    d.expectConvergence = true;
    return d;
}

/// CpuSystem overrides run() and registers components (TinyCpu, Ram)
/// outside the word library: the whole design is batch-ineligible, so
/// enabling the backend must be a silent no-op. Nothing collapses either.
/// The hang fault comes early, so a pooled testbench re-runs after its
/// no-halt detector tripped, and the supervisor-hook writes leave overlays
/// the next run on that testbench must not inherit.
Design cpuDesign()
{
    Design d;
    setFactories<duts::CpuSystemTestbench>(d);
    d.faults.emplace_back(fault::FaultSpec{});
    // An odd stride multiplies the iteration count: the program hangs.
    d.faults.emplace_back(fault::StateWriteFault{"sys/ram/w16", 17, kMicrosecond});
    d.faults.emplace_back(fault::StateWriteFault{duts::kDetectedHook, 1, kMicrosecond});
    d.faults.emplace_back(fault::BitFlipFault{duts::kMemImageHook, 5, kMicrosecond});
    const duts::CpuSystemTestbench probe;
    const auto names = probe.sim().digital().instrumentation().names();
    for (std::size_t i = 0; i < names.size() && i < 8; ++i) {
        d.faults.emplace_back(
            fault::BitFlipFault{names[i], 0, 2 * kMicrosecond + static_cast<SimTime>(i) * 41});
    }
    d.forkCadence = 500 * kNanosecond;
    d.expectPooling = true;
    return d;
}

/// A short PLL: current pulses on the loop filter and VCO output, a PFD/
/// divider state flip and a parametric VCO-gain shift.
Design pllDesign()
{
    pll::PllConfig cfg;
    cfg.duration = 6 * kMicrosecond; // three reference cycles: loop activity, cheap runs
    Design d;
    setFactories<pll::PllTestbench>(d, cfg);
    auto pulse = std::make_shared<fault::TrapezoidPulse>(2e-3, 300e-12, 300e-12, 1e-9);
    const pll::PllTestbench probe(cfg);
    const std::string reg = probe.sim().digital().instrumentation().names().front();
    d.faults = {
        fault::FaultSpec{},
        fault::CurrentPulseFault{pll::names::kSabFilter, 2.25e-6, pulse},
        fault::CurrentPulseFault{pll::names::kSabVcoOut, 4.875e-6, pulse},
        fault::BitFlipFault{reg, 0, 3750 * kNanosecond},
        fault::ParametricFault{"pll/kvco", 1.15, 3 * kMicrosecond},
    };
    d.forkCadence = 1500 * kNanosecond;
    d.retry = RetryPolicy{.maxAttempts = 2};
    return d;
}

/// A two-conversion SAR ADC: register flips mid-conversion plus current
/// pulses on the DAC output and the input.
Design adcDesign()
{
    adc::SarConfig cfg;
    cfg.inputLevels = {1.7, 2.9}; // two conversions keep the run short
    Design d;
    setFactories<adc::SarAdcTestbench>(d, cfg);
    auto pulse = std::make_shared<fault::TrapezoidPulse>(5e-3, 500e-12, 500e-12, 1e-9);
    const adc::SarAdcTestbench probe(cfg);
    d.faults.emplace_back(fault::FaultSpec{});
    const auto names = probe.sim().digital().instrumentation().names();
    for (std::size_t i = 0; i < names.size() && i < 4; ++i) {
        d.faults.emplace_back(fault::BitFlipFault{names[i], 0, 12 * kMicrosecond});
    }
    d.faults.emplace_back(fault::CurrentPulseFault{"sab/dac_out", 14e-6, pulse});
    d.faults.emplace_back(fault::CurrentPulseFault{"sab/vin", 3e-6, pulse});
    d.forkCadence = 5 * kMicrosecond;
    d.retry = RetryPolicy{.maxAttempts = 2};
    return d;
}

/// The abnormal design's circuit: a current source into a resistor, beside
/// a zero-delay oscillator that a parametric fault enables.
void buildAbnormal(fault::Testbench& tb)
{
    auto& ana = tb.sim().analog();
    auto& dig = tb.sim().digital();
    const analog::NodeId n1 = ana.node("n1");
    auto& src = ana.add<analog::CurrentSource>(ana, "src", n1, analog::kGround, 1e-3);
    ana.add<analog::Resistor>(ana, "r1", n1, analog::kGround, 1e3);
    tb.observeAnalog("n1");
    tb.addParameter("src/amps", [&src](double f) { src.setLevel(1e-3 * f); });

    auto& en = dig.logicSignal("osc/en", digital::Logic::Zero);
    auto& loop = dig.logicSignal("osc/loop", digital::Logic::Zero);
    dig.process(
        "osc/proc",
        [&en, &loop] {
            if (en.value() == digital::Logic::One) {
                loop.scheduleInertial(digital::logicNot(loop.value()), 0);
            }
        },
        {&en, &loop});
    tb.addParameter("osc/en", [&en](double) { en.forceValue(digital::Logic::One); });
    dig.scheduler().setDeltaLimit(5'000);
    tb.setDuration(100 * kNanosecond);
}

/// Abnormal outcomes and retries: a NaN source level diverges the solver
/// (retried with a tightened step), an enabled zero-delay oscillator hits
/// the delta limit (SimError). Every attempt runs on a fresh bench with
/// deterministic budgets, so these too must agree across modes. The design
/// schedules no digital events, so fork mode finds no capture point.
Design abnormalDesign()
{
    Design d;
    d.counted = [](RunCounter runs) -> fault::TestbenchFactory {
        return [runs]() -> std::unique_ptr<fault::Testbench> {
            auto tb = std::make_unique<test::Counted<fault::Testbench>>(runs);
            buildAbnormal(*tb);
            return tb;
        };
    };
    d.factory = d.counted(std::make_shared<std::atomic<int>>(0));
    d.faults = {
        fault::FaultSpec{},
        fault::ParametricFault{"src/amps", std::nan(""), 0},     // Diverged (retried)
        fault::ParametricFault{"osc/en", 1.0, 10 * kNanosecond}, // SimError
        fault::ParametricFault{"src/amps", 2.0, 0},              // clean deviation
    };
    d.forkCadence = 20 * kNanosecond;
    d.retry = RetryPolicy{.maxAttempts = 2};
    d.expectCheckpoints = false;
    return d;
}

/// The checked-in ISCAS-85 c17, ingested: a stuck-at-0 and -1 on every net
/// from t = 0 — armed before the kernel's startup pass, on a fresh build as
/// on a pooled testbench restored from the pre-start checkpoint — and one
/// mid-run SET pulse per net (batch lanes; forked in fork mode). Every
/// c17 net fans out or is observed, so nothing collapses.
Design netlistDesign()
{
    const io::IngestWorkload wl =
        io::makeWorkload(io::parseNetlistFile(GFI_TESTCASES_DIR "/c17.bench"),
                         io::IngestConfig{.prefix = {}, .patternCount = 16},
                         io::FaultListOptions{.setPulses = true});
    Design d;
    setFactories<io::IngestTestbench>(d, wl.netlist, wl.patterns, wl.config);
    d.faults.emplace_back(fault::FaultSpec{});
    d.faults.insert(d.faults.end(), wl.faults.begin(), wl.faults.end());
    d.forkCadence = 30 * kNanosecond;
    d.expectLanes = true;
    d.expectPooling = true;
    d.expectConvergence = true;
    return d;
}

// ---------------------------------------------------------------------------
// Cells

/// A never-tripping per-run budget: it changes only the batch decision.
constexpr std::uint64_t kGenerousWaves = 1'000'000'000;

struct Cell {
    unsigned workers = 1;
    bool batch = false;
    bool collapse = false;
    bool fork = false;
    bool resume = false;
    bool watchdog = false;

    /// Batch counts as off under fork or a watchdog budget.
    [[nodiscard]] bool effectiveBatch() const { return batch && !fork && !watchdog; }

    [[nodiscard]] bool isReference() const
    {
        return workers == 1 && !fork && !resume && !watchdog;
    }

    [[nodiscard]] std::string name() const
    {
        return "w" + std::to_string(workers) + (batch ? "_batch" : "") +
               (collapse ? "_collapse" : "") + (fork ? "_fork" : "") +
               (resume ? "_resume" : "") + (watchdog ? "_watchdog" : "");
    }
};

/// The first line where @p got and @p want differ, for compact failure text.
std::string firstDiff(const std::string& got, const std::string& want)
{
    std::istringstream a(got);
    std::istringstream b(want);
    std::string la;
    std::string lb;
    for (int line = 1;; ++line) {
        const bool moreA = static_cast<bool>(std::getline(a, la));
        const bool moreB = static_cast<bool>(std::getline(b, lb));
        if (!moreA && !moreB) {
            return "(identical)";
        }
        if (la != lb || moreA != moreB) {
            return "line " + std::to_string(line) + "\n  got:  " + (moreA ? la : "<end>") +
                   "\n  want: " + (moreB ? lb : "<end>");
        }
    }
}

#define EXPECT_SAME_BYTES(got, want, what)                                                   \
    EXPECT_TRUE((got) == (want)) << (what) << " differs at " << firstDiff((got), (want))

/// What a campaign should have simulated, from its report: the attempts of
/// every event-kernel verdict (neither restored, expanded nor word-simulated)
/// and the testbench builds they need.
struct SimulatedWork {
    int attempts = 0;      ///< kernel attempts, each one run() call
    int freshPath = 0;     ///< attempts that build (and drop) their own testbench
    int dropped = 0;       ///< pooled attempts that ended abnormally
    int buildsSerial = 1;  ///< exact builds at one worker, the golden one included
};

SimulatedWork simulatedWork(const Design& d, const CampaignReport& report)
{
    SimulatedWork w;
    bool warm = false; // one worker: is a pooled testbench idle?
    for (const RunResult& r : report.runs) {
        const RunDiagnostics& diag = r.diagnostics;
        if (diag.fromJournal || !diag.collapsedFrom.empty() || diag.batchLane > 0) {
            continue;
        }
        w.attempts += diag.attempts;
        for (int a = 1; a <= diag.attempts; ++a) {
            // Only the final attempt may be normal: the others were retried.
            const bool abnormal = a < diag.attempts || isAbnormal(r.outcome);
            if (!d.expectPooling || a > 1 ||
                std::holds_alternative<fault::ParametricFault>(r.fault)) {
                ++w.freshPath;
                ++w.buildsSerial;
                continue;
            }
            w.buildsSerial += warm ? 0 : 1;
            warm = !abnormal;
            w.dropped += abnormal ? 1 : 0;
        }
    }
    return w;
}

/// Runs one cell. Besides the outputs it checks what only the cell's own
/// run can show: the progress callback's order, restoration of exactly the
/// resumed half, checkpoint capture, that only the golden run and
/// event-kernel attempts simulate, and how many testbenches they built.
CampaignOutput runCell(const Design& d, const Cell& cell, const std::string& designName)
{
    const std::string path =
        ::testing::TempDir() + "gfi_matrix_" + designName + "_" + cell.name() + ".jsonl";
    std::remove(path.c_str());
    const auto configure = [&](CampaignRunner& r) {
        r.setWorkers(cell.workers);
        r.setRecordTiming(false);
        r.setJournalPath(path);
        r.setBatchBackend(cell.batch);
        r.setFaultCollapsing(cell.collapse);
        r.setCheckpointCadence(cell.fork ? d.forkCadence : 0);
        r.setRetryPolicy(d.retry);
        r.setWatchdogConfig(
            cell.watchdog ? WatchdogConfig{.digitalWaves = kGenerousWaves} : WatchdogConfig{});
    };
    const std::size_t half = cell.resume ? d.faults.size() / 2 : 0;
    if (cell.resume) {
        CampaignRunner first(d.factory);
        configure(first);
        (void)first.run({d.faults.begin(), d.faults.begin() + static_cast<long>(half)});
    }

    auto builds = std::make_shared<std::atomic<int>>(0);
    auto runs = std::make_shared<std::atomic<int>>(0);
    CampaignRunner runner([factory = d.counted(runs), builds] {
        builds->fetch_add(1, std::memory_order_relaxed);
        return factory();
    });
    configure(runner);
    std::vector<std::size_t> order; // the runner serializes progress calls
    CampaignReport report =
        runner.run(d.faults, [&order](std::size_t i, const RunResult&) { order.push_back(i); });

    std::vector<std::size_t> inOrder(d.faults.size());
    std::iota(inOrder.begin(), inOrder.end(), 0u);
    EXPECT_EQ(order, inOrder) << "progress callbacks out of fault-list order";
    if (cell.fork && d.expectCheckpoints) {
        EXPECT_GT(runner.checkpointCount(), 0u) << "fork mode captured nothing";
    }
    const SimulatedWork work = simulatedWork(d, report);
    // A fork-mode golden advances its simulator without run().
    EXPECT_EQ(runs->load(), (cell.fork ? 0 : 1) + work.attempts)
        << "restored, expanded or word-simulated verdicts were re-simulated";
    // A batched campaign builds one more testbench: the one its word model
    // compiles from, which every word group shares.
    const int wordBuilds = cell.effectiveBatch() ? 1 : 0;
    if (cell.workers == 1) {
        EXPECT_EQ(builds->load(), work.buildsSerial + wordBuilds);
    }
    EXPECT_LE(builds->load(), 1 + static_cast<int>(cell.workers) + work.freshPath +
                                  work.dropped + wordBuilds);
    // The full side is the fresh-bench oracle below; here the designs whose
    // transients rejoin golden must take the convergence exit.
    if (d.expectConvergence && !cell.effectiveBatch()) {
        EXPECT_TRUE(std::any_of(report.runs.begin(), report.runs.end(), [](const RunResult& r) {
            return r.diagnostics.convergedAt >= 0;
        })) << "no event-kernel run took the convergence exit";
    }
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        RunDiagnostics& diag = report.runs[i].diagnostics;
        EXPECT_EQ(diag.fromJournal, i < half) << "fault " << i;
        // Restored rows are flagged in JSON/CSV; the flag is checked above,
        // so resumed cells render like fresh ones.
        diag.fromJournal = false;
    }
    CampaignOutput out = test::capture(std::move(report), test::slurp(path), path);
    std::remove(path.c_str());
    return out;
}

/// Per-fault verdicts against the plain reference. Expanded collapse
/// members carry no resource diagnostics of their own.
void expectSameVerdicts(const CampaignReport& got, const CampaignReport& plain)
{
    ASSERT_EQ(got.runs.size(), plain.runs.size());
    for (std::size_t i = 0; i < plain.runs.size(); ++i) {
        const RunResult& a = got.runs[i];
        const RunResult& b = plain.runs[i];
        EXPECT_EQ(a.outcome, b.outcome) << "fault " << i << " reclassified";
        EXPECT_EQ(a.erredSignals, b.erredSignals) << "fault " << i;
        EXPECT_EQ(a.corruptedState, b.corruptedState) << "fault " << i;
        if (a.diagnostics.collapsedFrom.empty()) {
            EXPECT_EQ(a.diagnostics.attempts, b.diagnostics.attempts) << "fault " << i;
            EXPECT_EQ(a.diagnostics.digitalWaves, b.diagnostics.digitalWaves)
                << "fault " << i << " wave count diverged";
        }
    }
}

struct DesignCase {
    const char* name;
    Design (*make)();
};

void PrintTo(const DesignCase& c, std::ostream* os) { *os << c.name; }

class CampaignMatrix : public ::testing::TestWithParam<DesignCase> {};

TEST_P(CampaignMatrix, EveryCellMatchesItsEffectiveModeReference)
{
    const Design d = GetParam().make();
    const std::string name = GetParam().name;

    // References: one worker, no fork, no resume, no watchdog; [batch][collapse].
    CampaignOutput ref[2][2];
    for (const bool batch : {false, true}) {
        for (const bool collapse : {false, true}) {
            const Cell cell{.batch = batch, .collapse = collapse};
            SCOPED_TRACE(name + " reference " + cell.name());
            ref[batch][collapse] = runCell(d, cell, name);
            ASSERT_EQ(ref[batch][collapse].report.runs.size(), d.faults.size());
            EXPECT_FALSE(ref[batch][collapse].journal.empty());
        }
    }
    const CampaignOutput& plain = ref[0][0];

    // The batch backend adds only lane provenance, at either collapse setting.
    for (const bool collapse : {false, true}) {
        SCOPED_TRACE(name + (collapse ? " batch vs event, collapsed" : " batch vs event"));
        const CampaignOutput& event = ref[0][collapse];
        const CampaignOutput& batch = ref[1][collapse];
        EXPECT_SAME_BYTES(test::stripBatchLane(batch.journal), event.journal, "journal");
        EXPECT_SAME_BYTES(batch.summary, event.summary, "summary");
        EXPECT_SAME_BYTES(batch.detail, event.detail, "detail");
        EXPECT_SAME_BYTES(test::stripBatchLane(batch.json), event.json, "JSON");
        EXPECT_SAME_BYTES(test::stripCsvLaneColumn(batch.csv), event.csv, "CSV");
        EXPECT_EQ(batch.journal.find("\"batch_lane\"") != std::string::npos, d.expectLanes)
            << (d.expectLanes ? "the backend silently fell back"
                              : "a design-ineligible campaign recorded lanes");
        expectSameVerdicts(batch.report, event.report);
    }

    // Collapsing adds only expansion provenance — or, when nothing in the
    // list is equivalent, degrades to the plain campaign byte for byte.
    {
        SCOPED_TRACE(name + " collapsed vs plain");
        const CampaignOutput& collapsed = ref[0][1];
        std::size_t expanded = 0;
        for (const RunResult& r : collapsed.report.runs) {
            expanded += r.diagnostics.collapsedFrom.empty() ? 0 : 1;
        }
        if (d.expectCollapse) {
            EXPECT_GT(expanded, 0u) << "nothing collapsed";
            EXPECT_NE(collapsed.summary.find("collapsed runs"), std::string::npos);
            EXPECT_NE(collapsed.journal.find("\"collapsed_from\""), std::string::npos);
            EXPECT_NE(collapsed.json.find("\"collapsed_from\""), std::string::npos);
        } else {
            EXPECT_EQ(expanded, 0u);
            EXPECT_SAME_BYTES(collapsed.journal, plain.journal, "journal");
            EXPECT_SAME_BYTES(collapsed.summary, plain.summary, "summary");
            EXPECT_SAME_BYTES(collapsed.json, plain.json, "JSON");
            EXPECT_SAME_BYTES(collapsed.csv, plain.csv, "CSV");
        }
        expectSameVerdicts(collapsed.report, plain.report);
    }

    for (unsigned mask = 0; mask < 64; ++mask) {
        const Cell cell{.workers = (mask & 1u) != 0 ? 4u : 1u,
                        .batch = (mask & 2u) != 0,
                        .collapse = (mask & 4u) != 0,
                        .fork = (mask & 8u) != 0,
                        .resume = (mask & 16u) != 0,
                        .watchdog = (mask & 32u) != 0};
        if (cell.isReference()) {
            continue;
        }
        SCOPED_TRACE(name + " " + cell.name());
        const CampaignOutput out = runCell(d, cell, name);
        const CampaignOutput& want = ref[cell.effectiveBatch()][cell.collapse];
        EXPECT_SAME_BYTES(out.journal, want.journal, "journal");
        EXPECT_SAME_BYTES(out.summary, want.summary, "summary");
        EXPECT_SAME_BYTES(out.detail, want.detail, "detail");
        EXPECT_SAME_BYTES(out.json, want.json, "JSON");
        EXPECT_SAME_BYTES(out.csv, want.csv, "CSV");
        EXPECT_SAME_BYTES(out.detail, plain.detail, "detail vs the plain campaign");
        expectSameVerdicts(out.report, plain.report);
    }
}

// The oracle: every fault on a freshly built testbench — factory, armFault,
// run(), classify — with no pool, checkpoint, batch or containment in the
// way. The plain reference (pooled testbenches on the digital designs) must
// give the same verdicts and wave counts. A first attempt that throws must be
// an abnormal verdict; the retry that follows it is the runner's business.
TEST_P(CampaignMatrix, FreshBenchPerFaultMatchesThePlainReference)
{
    const Design d = GetParam().make();
    const CampaignOutput plain = runCell(d, Cell{}, std::string(GetParam().name) + "_oracle");
    CampaignRunner oracle(d.factory);
    oracle.runGolden();
    for (std::size_t i = 0; i < d.faults.size(); ++i) {
        SCOPED_TRACE("fault " + std::to_string(i) + " " + fault::describe(d.faults[i]));
        const RunResult& want = plain.report.runs[i];
        const std::unique_ptr<fault::Testbench> tb = d.factory();
        try {
            fault::armFault(*tb, d.faults[i]);
            tb->run();
        } catch (const std::exception& e) {
            EXPECT_TRUE(isAbnormal(want.outcome) || want.diagnostics.attempts > 1) << e.what();
            continue;
        }
        const RunResult got = oracle.classify(*tb, d.faults[i]);
        EXPECT_EQ(got.outcome, want.outcome);
        EXPECT_EQ(got.erredSignals, want.erredSignals);
        EXPECT_EQ(got.corruptedState, want.corruptedState);
        EXPECT_EQ(tb->sim().digital().scheduler().deltaCycles(), want.diagnostics.digitalWaves);
    }
}

INSTANTIATE_TEST_SUITE_P(Designs, CampaignMatrix,
                         ::testing::Values(DesignCase{"ChainDut", &chainDesign},
                                           DesignCase{"DigitalDut", &digitalDesign},
                                           DesignCase{"CpuSystem", &cpuDesign},
                                           DesignCase{"Pll", &pllDesign},
                                           DesignCase{"Adc", &adcDesign},
                                           DesignCase{"Abnormal", &abnormalDesign},
                                           DesignCase{"Netlist", &netlistDesign}),
                         [](const ::testing::TestParamInfo<DesignCase>& info) {
                             return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------------
// Cross-mode resume: the provenance rule

/// Resumes @p path with a runner configured by @p configure and returns its
/// report rendered like a fresh campaign's, after checking that every
/// verdict came from the journal.
CampaignOutput resumeAll(const Design& d, const std::string& path,
                         const std::function<void(CampaignRunner&)>& configure)
{
    CampaignRunner runner(d.factory);
    runner.setRecordTiming(false);
    runner.setJournalPath(path);
    configure(runner);
    CampaignReport report = runner.run(d.faults);
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        EXPECT_TRUE(report.runs[i].diagnostics.fromJournal) << "fault " << i;
        report.runs[i].diagnostics.fromJournal = false;
    }
    return test::capture(std::move(report), "", path);
}

// A journal holding batch lanes, collapse expansions and (with timing on)
// fork checkpoints, resumed by a plain campaign, must read back exactly as a
// fresh plain campaign: no footer, key or column of the modes that wrote it.
TEST(CampaignMatrixResume, MixedModeJournalResumesIntoPlainCampaign)
{
    const Design d = chainDesign();
    const CampaignOutput fresh = test::runCampaign(d.factory, d.faults, "matrix_mixed_fresh");
    for (const bool timing : {false, true}) {
        SCOPED_TRACE(timing ? "timing on" : "timing off");
        const std::string path = ::testing::TempDir() + "gfi_matrix_mixed.jsonl";
        std::remove(path.c_str());
        {
            CampaignRunner batched(d.factory);
            batched.setRecordTiming(timing);
            batched.setJournalPath(path);
            batched.setBatchBackend(true);
            batched.setFaultCollapsing(true);
            (void)batched.run(
                {d.faults.begin(), d.faults.begin() + static_cast<long>(d.faults.size() / 2)});
        }
        {
            CampaignRunner forked(d.factory);
            forked.setRecordTiming(timing);
            forked.setJournalPath(path);
            forked.setCheckpointCadence(d.forkCadence);
            (void)forked.run(d.faults); // appends fork-mode lines for the rest
        }
        const std::string journal = test::slurp(path);
        EXPECT_NE(journal.find("\"batch_lane\""), std::string::npos);
        EXPECT_NE(journal.find("\"collapsed_from\""), std::string::npos);
        EXPECT_EQ(std::regex_search(journal, std::regex("\"checkpoint_fs\": [1-9]")), timing)
            << "fork lines record their checkpoint only with timing on";

        const CampaignOutput resumed = resumeAll(d, path, [](CampaignRunner&) {});
        EXPECT_SAME_BYTES(resumed.summary, fresh.summary, "summary");
        EXPECT_SAME_BYTES(resumed.detail, fresh.detail, "detail");
        EXPECT_SAME_BYTES(resumed.json, fresh.json, "JSON");
        std::remove(path.c_str());
    }
}

// A forensics journal resumed with forensics off must not name artifacts the
// resuming campaign never wrote.
TEST(CampaignMatrixResume, ForensicsJournalResumesWithForensicsOff)
{
    const Design d = digitalDesign();
    const auto budget = [](CampaignRunner& r) {
        r.setWatchdogConfig(WatchdogConfig{.digitalWaves = 50}); // seeded Timeouts
        r.setForensics("");
    };
    const CampaignOutput fresh = test::runCampaign(d.factory, d.faults, "matrix_forensics_fresh",
                                                   budget);
    const std::string dir = ::testing::TempDir() + "gfi_matrix_forensics";
    const std::string path = dir + ".jsonl";
    std::filesystem::remove_all(dir);
    std::remove(path.c_str());
    {
        CampaignRunner recorded(d.factory);
        recorded.setRecordTiming(false);
        recorded.setJournalPath(path);
        budget(recorded);
        recorded.setForensics(dir);
        (void)recorded.run(d.faults);
    }
    EXPECT_NE(test::slurp(path).find("\"forensic\""), std::string::npos);

    const CampaignOutput resumed = resumeAll(d, path, budget);
    EXPECT_NE(fresh.summary.find("timeout"), std::string::npos);
    EXPECT_SAME_BYTES(resumed.summary, fresh.summary, "summary");
    EXPECT_SAME_BYTES(resumed.detail, fresh.detail, "detail");
    EXPECT_SAME_BYTES(resumed.json, fresh.json, "JSON");
    std::remove(path.c_str());
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Options enter only through the API

// A program embedding the runner must not inherit campaign modes, a
// telemetry sink or a worker count from its process environment: with all
// of them set, a campaign reads default options, writes no artifact of its
// own and journals the bytes of a campaign run without them.
TEST(CampaignOptions, AmbientEnvironmentIsIgnored)
{
    const Design d = digitalDesign();
    const std::string dir = ::testing::TempDir() + "gfi_ambient_env";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto journalOf = [&](const std::string& name) {
        const std::string path = dir + "/" + name + ".jsonl";
        CampaignRunner runner(d.factory);
        EXPECT_EQ(runner.workers(), 0u);
        EXPECT_FALSE(runner.faultCollapsingEnabled());
        EXPECT_FALSE(runner.batchBackendEnabled());
        EXPECT_EQ(runner.checkpointCadence(), 0);
        EXPECT_TRUE(runner.forensicsDir().empty());
        EXPECT_EQ(runner.telemetry(), nullptr);
        runner.setRecordTiming(false);
        runner.setJournalPath(path);
        (void)runner.run(d.faults);
        return test::slurp(path);
    };
    const std::string unset = journalOf("unset");

    // Every variable the runner, its telemetry sink and the executor once
    // read, each set to a valid value that would change the outputs.
    const std::string forensics = dir + "/forensics";
    const std::string trace = dir + "/trace.json";
    const std::string metrics = dir + "/metrics.prom";
    const std::pair<const char*, std::string> variables[] = {
        {"GFI_COLLAPSE", "1"},       {"GFI_BATCH", "1"}, {"GFI_CHECKPOINT", "1e-6"},
        {"GFI_FORENSICS", forensics}, {"GFI_TRACE", trace}, {"GFI_METRICS", metrics},
        {"GFI_JOBS", "3"}};
    for (const auto& [name, value] : variables) {
        ::setenv(name, value.c_str(), 1);
    }
    const unsigned cores = std::thread::hardware_concurrency();
    EXPECT_EQ(core::Executor::defaultWorkers(), cores != 0 ? cores : 1u);
    const std::string ambient = journalOf("ambient");
    for (const auto& [name, value] : variables) {
        ::unsetenv(name);
    }

    EXPECT_SAME_BYTES(ambient, unset, "journal");
    EXPECT_FALSE(std::filesystem::exists(trace));
    EXPECT_FALSE(std::filesystem::exists(metrics));
    EXPECT_FALSE(std::filesystem::exists(forensics));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace gfi::campaign
