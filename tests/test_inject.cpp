// Processor-injection supervisor: architectural taxonomy, deterministic
// sampling and campaign-engine integration.
//
// The contract under test: the supervisor's COAST-style verdict (masked /
// corrected / detected / SDC / hang / contained) is a pure function of the
// journaled RunResult, so it survives journal resume and parallel ordered
// commits byte-for-byte; the no-halt detector classifies a seeded
// never-terminating run in a small fraction of the wall-clock watchdog
// budget; and hardening the data RAM with SEC-DED + scrubbing strictly
// reduces the RAM-target SDC cross-section.

#include "campaign_harness.hpp"

#include "core/journal.hpp"
#include "inject/supervisor.hpp"
#include "inject/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <variant>

namespace gfi::inject {
namespace {

using test::slurp;


duts::CpuSystemConfig configFor(duts::HardeningMode mode)
{
    duts::CpuSystemConfig cfg;
    cfg.hardening = duts::hardeningPreset(mode);
    return cfg;
}

// ---------------------------------------------------------------------------
// Target model

TEST(InjectTargets, HookNamesMapOntoArchitecturalClasses)
{
    EXPECT_EQ(targetClassOf("sys/core/pc"), TargetClass::Pc);
    EXPECT_EQ(targetClassOf("sys/core/acc"), TargetClass::Acc);
    EXPECT_EQ(targetClassOf("sys/core/halt"), TargetClass::Ctrl);
    EXPECT_EQ(targetClassOf("sys/ram/w16"), TargetClass::Ram);
    EXPECT_EQ(targetClassOf("sys/outreg"), TargetClass::OutReg);
    EXPECT_EQ(targetClassOf("sys/outreg/copy2"), TargetClass::OutReg);
    EXPECT_EQ(targetClassOf("sys/outreg/code"), TargetClass::OutReg);
    // Supervisor meta-hooks are evidence, not injection targets.
    EXPECT_EQ(targetClassOf(duts::kHangHook), TargetClass::Other);
    EXPECT_EQ(targetClassOf(duts::kMemImageHook), TargetClass::Other);
}

TEST(InjectTargets, EnumerationCoversEveryClassAndExcludesMetaHooks)
{
    InjectionSupervisor sup(configFor(duts::HardeningMode::None));
    const std::vector<ArchTarget> targets = sup.targets();
    ASSERT_FALSE(targets.empty());
    std::set<TargetClass> seen;
    for (const ArchTarget& t : targets) {
        EXPECT_EQ(t.hook.find("/sup/"), std::string::npos) << t.hook;
        EXPECT_GT(t.width, 0) << t.hook;
        seen.insert(t.cls);
    }
    for (TargetClass tc : kReportTargetClasses) {
        EXPECT_TRUE(seen.count(tc) > 0) << "no targets of class " << toString(tc);
    }
    // Deterministic (sorted) order.
    EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end(),
                               [](const ArchTarget& a, const ArchTarget& b) {
                                   return a.hook < b.hook;
                               }));
}

TEST(InjectTargets, GoldenProgramHaltsBeforeTheHangDeadline)
{
    InjectionSupervisor sup;
    const SimTime halt = sup.goldenHaltTime();
    EXPECT_GT(halt, 0);
    duts::CpuSystemTestbench probe;
    EXPECT_LT(halt, probe.hangDeadline());
}

TEST(InjectTargets, GoldenHangIsAConfigurationError)
{
    duts::CpuSystemConfig cfg;
    // Odd stride: the 8-bit sum never wraps to zero within 256 iterations of
    // the deadline, so the golden program itself hangs.
    cfg.program = {duts::asm1(duts::Op::Ldi, 3),  duts::asm1(duts::Op::Sta, 16),
                   duts::asm1(duts::Op::Ldi, 0),  duts::asm1(duts::Op::Add, 16),
                   duts::asm1(duts::Op::Out),     duts::asm1(duts::Op::Sta, 17),
                   duts::asm1(duts::Op::Jnz, 3),  duts::asm1(duts::Op::Out),
                   duts::asm1(duts::Op::Hlt)};
    InjectionSupervisor sup(cfg);
    EXPECT_THROW((void)sup.goldenHaltTime(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deterministic sampling

TEST(InjectSampling, SameSeedSameFaultsAcrossSupervisors)
{
    InjectionSupervisor a;
    InjectionSupervisor b;
    const auto fa = a.sampleFaults(40, 0x5EED);
    const auto fb = b.sampleFaults(40, 0x5EED);
    ASSERT_EQ(fa.size(), 40u);
    ASSERT_EQ(fb.size(), 40u);
    for (std::size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(fault::describe(fa[i]), fault::describe(fb[i])) << "fault " << i;
    }
    const auto fc = a.sampleFaults(40, 0x5EED + 1);
    int differing = 0;
    for (std::size_t i = 0; i < fa.size(); ++i) {
        differing += fault::describe(fa[i]) != fault::describe(fc[i]) ? 1 : 0;
    }
    EXPECT_GT(differing, 20) << "a different seed must reshuffle the sample";
}

TEST(InjectSampling, SampledTriplesRespectWidthsAndTheGoldenWindow)
{
    InjectionSupervisor sup;
    const SimTime halt = sup.goldenHaltTime();
    const SimTime period = sup.clockPeriod();
    std::map<std::string, int> widths;
    for (const ArchTarget& t : sup.targets()) {
        widths[t.hook] = t.width;
    }
    for (const fault::FaultSpec& spec : sup.sampleFaults(120, 7)) {
        const auto* flip = std::get_if<fault::BitFlipFault>(&spec);
        ASSERT_NE(flip, nullptr);
        ASSERT_TRUE(widths.count(flip->target) > 0) << flip->target;
        EXPECT_GE(flip->bit, 0);
        EXPECT_LT(flip->bit, widths[flip->target]);
        EXPECT_GE(flip->time, period);
        EXPECT_LT(flip->time, halt + period);
        EXPECT_NE(flip->time % period, 0) << "injection must land mid-cycle";
    }
}

TEST(InjectSampling, ExhaustiveFaultsCoverOneClassCompletely)
{
    InjectionSupervisor sup(configFor(duts::HardeningMode::None));
    const auto faults = sup.exhaustiveFaults(TargetClass::Pc, {157 * kNanosecond});
    // TinyCpu's PC is 5 bits wide; nothing else maps onto the PC class.
    EXPECT_EQ(faults.size(), 5u);
    for (const fault::FaultSpec& spec : faults) {
        const auto* flip = std::get_if<fault::BitFlipFault>(&spec);
        ASSERT_NE(flip, nullptr);
        EXPECT_EQ(flip->target, "sys/core/pc");
    }
}

// ---------------------------------------------------------------------------
// classifyRun: the taxonomy decision tree on synthetic journal entries

campaign::RunResult syntheticRun(campaign::Outcome o,
                                 std::vector<std::string> erred = {},
                                 std::vector<std::string> corrupted = {})
{
    campaign::RunResult r;
    r.fault = fault::BitFlipFault{"sys/core/acc", 0, kMicrosecond};
    r.outcome = o;
    r.erredSignals = std::move(erred);
    r.corruptedState = std::move(corrupted);
    return r;
}

TEST(InjectClassify, DecisionTreePrecedence)
{
    using campaign::Outcome;
    // Containment outcomes dominate everything.
    EXPECT_EQ(InjectionSupervisor::classifyRun(
                  syntheticRun(Outcome::Timeout, {"sys/out[0]"}, {duts::kHangHook})),
              CpuClass::Contained);
    EXPECT_EQ(InjectionSupervisor::classifyRun(syntheticRun(Outcome::SimError)),
              CpuClass::Contained);
    EXPECT_EQ(InjectionSupervisor::classifyRun(syntheticRun(Outcome::Diverged)),
              CpuClass::Contained);
    // Hang beats detection and data corruption.
    EXPECT_EQ(InjectionSupervisor::classifyRun(syntheticRun(
                  Outcome::Failure, {"sys/out[3]"},
                  {duts::kHangHook, duts::kDetectedHook, duts::kMemImageHook})),
              CpuClass::Hang);
    // Detected beats SDC (the mechanism raised its flag, even if data leaked).
    EXPECT_EQ(InjectionSupervisor::classifyRun(syntheticRun(
                  Outcome::Failure, {"sys/out[3]"}, {duts::kDetectedHook})),
              CpuClass::Detected);
    // Wrong output stream or wrong memory image, no flag -> SDC.
    EXPECT_EQ(InjectionSupervisor::classifyRun(
                  syntheticRun(Outcome::TransientError, {"sys/out[1]"})),
              CpuClass::SilentDataCorruption);
    EXPECT_EQ(InjectionSupervisor::classifyRun(
                  syntheticRun(Outcome::Latent, {}, {duts::kMemImageHook})),
              CpuClass::SilentDataCorruption);
    // Golden-identical behaviour, but a repair counter moved -> Corrected.
    EXPECT_EQ(InjectionSupervisor::classifyRun(
                  syntheticRun(Outcome::Latent, {}, {duts::kCorrectedHook})),
              CpuClass::Corrected);
    // Nothing observable at all -> Masked (latent junk outside the
    // architectural data words stays masked, software never saw it).
    EXPECT_EQ(InjectionSupervisor::classifyRun(syntheticRun(Outcome::Silent)),
              CpuClass::Masked);
    EXPECT_EQ(InjectionSupervisor::classifyRun(
                  syntheticRun(Outcome::Latent, {}, {"sys/ram/w5"})),
              CpuClass::Masked);
}

// ---------------------------------------------------------------------------
// End-to-end verdicts per hardening mechanism

CpuClass classOfSingleFault(duts::HardeningMode mode, const fault::FaultSpec& f)
{
    InjectionSupervisor sup(configFor(mode));
    const SupervisorReport report = sup.run({f});
    EXPECT_EQ(report.classes.size(), 1u);
    return report.classes.empty() ? CpuClass::Contained : report.classes.front();
}

TEST(InjectVerdicts, OddStrideUpsetHangsAndTripsTheNoHaltDetectorFast)
{
    InjectionSupervisor sup(configFor(duts::HardeningMode::None));
    // Stride 16 -> 17 (odd): the 8-bit sum needs 256 iterations to wrap, far
    // beyond the hang deadline. The staged run stops at the deadline instead
    // of simulating out the watchdog budget.
    WatchdogConfig watchdog;
    watchdog.wallClockSeconds = 5.0;
    sup.runner().setWatchdogConfig(watchdog);
    const SupervisorReport report =
        sup.run({fault::FaultSpec{fault::BitFlipFault{"sys/ram/w16", 0, 157 * kNanosecond}}});
    ASSERT_EQ(report.classes.size(), 1u);
    EXPECT_EQ(report.classes.front(), CpuClass::Hang);
    const campaign::RunResult& r = report.campaign.runs.front();
    EXPECT_NE(r.outcome, campaign::Outcome::Timeout)
        << "the no-halt detector must fire long before the wall-clock watchdog";
    // Acceptance bound: classified in under 10 % of the watchdog budget.
    EXPECT_LT(r.diagnostics.wallSeconds, 0.1 * watchdog.wallClockSeconds);
}

TEST(InjectVerdicts, EvenStrideUpsetIsSilentDataCorruption)
{
    // Stride 16 -> 24 (bit 3): still halts (32 iterations), but the streamed
    // partial sums are wrong -> SDC.
    EXPECT_EQ(classOfSingleFault(
                  duts::HardeningMode::None,
                  fault::FaultSpec{fault::BitFlipFault{"sys/ram/w16", 3, 157 * kNanosecond}}),
              CpuClass::SilentDataCorruption);
}

TEST(InjectVerdicts, DwcOutputRegisterFlipIsDetected)
{
    // Either copy trips the mismatch comparator; the primary copy also leaks
    // the wrong value to the output for one cycle — detection has precedence.
    EXPECT_EQ(classOfSingleFault(duts::HardeningMode::Dwc,
                                 fault::FaultSpec{fault::BitFlipFault{
                                     "sys/outreg/copy0", 2, 557 * kNanosecond}}),
              CpuClass::Detected);
    EXPECT_EQ(classOfSingleFault(duts::HardeningMode::Dwc,
                                 fault::FaultSpec{fault::BitFlipFault{
                                     "sys/outreg/copy1", 5, 557 * kNanosecond}}),
              CpuClass::Detected);
}

TEST(InjectVerdicts, TmrOutputRegisterFlipIsMasked)
{
    EXPECT_EQ(classOfSingleFault(duts::HardeningMode::Tmr,
                                 fault::FaultSpec{fault::BitFlipFault{
                                     "sys/outreg/copy1", 3, 557 * kNanosecond}}),
              CpuClass::Masked);
}

TEST(InjectVerdicts, EccRamSingleBitUpsetIsCorrected)
{
    // The stride word is re-read every loop iteration: the SEC-DED read path
    // absorbs the flip and the correction counter moves.
    EXPECT_EQ(classOfSingleFault(
                  duts::HardeningMode::EccScrub,
                  fault::FaultSpec{fault::BitFlipFault{"sys/ram/w16", 0, 157 * kNanosecond}}),
              CpuClass::Corrected);
}

TEST(InjectVerdicts, EccRamDoubleBitUpsetIsDetectedByTheScrubber)
{
    // Double flip in the spill word *after* the program halted: no read or
    // rewrite ever touches it again, so only the scrubbing sweep meets the
    // uncorrectable word and flags it.
    EXPECT_EQ(classOfSingleFault(duts::HardeningMode::EccScrub,
                                 fault::FaultSpec{fault::DoubleBitFlipFault{
                                     "sys/ram/w17", 2, 7, 2 * kMicrosecond}}),
              CpuClass::Detected);
}

// ---------------------------------------------------------------------------
// Hardening efficiency: the RAM-target SDC cross-section must shrink

std::vector<fault::FaultSpec> dataWordFaults(InjectionSupervisor& sup)
{
    // Exhaustive single-bit coverage of the two architectural data words at
    // two post-store injection times.
    const std::vector<SimTime> times{157 * kNanosecond, 457 * kNanosecond};
    std::vector<fault::FaultSpec> faults;
    for (const ArchTarget& t : sup.targets()) {
        if (t.cls != TargetClass::Ram) {
            continue;
        }
        const auto endsWith = [&t](const char* suffix) {
            const std::string s(suffix);
            return t.hook.size() >= s.size() &&
                   t.hook.compare(t.hook.size() - s.size(), s.size(), s) == 0;
        };
        if (!endsWith("/w16") && !endsWith("/w17")) {
            continue;
        }
        for (int bit = 0; bit < t.width; ++bit) {
            for (SimTime time : times) {
                faults.emplace_back(fault::BitFlipFault{t.hook, bit, time});
            }
        }
    }
    return faults;
}

TEST(InjectHardening, EccScrubEliminatesRamSdc)
{
    InjectionSupervisor none(configFor(duts::HardeningMode::None));
    const SupervisorReport unprotected = none.run(dataWordFaults(none));
    InjectionSupervisor ecc(configFor(duts::HardeningMode::EccScrub));
    const SupervisorReport hardened = ecc.run(dataWordFaults(ecc));

    const campaign::Proportion sdcNone =
        unprotected.rate(TargetClass::Ram, CpuClass::SilentDataCorruption);
    const campaign::Proportion sdcEcc =
        hardened.rate(TargetClass::Ram, CpuClass::SilentDataCorruption);
    EXPECT_GT(sdcNone.successes, 0) << "raw RAM must show data corruption";
    EXPECT_EQ(sdcEcc.successes, 0) << "SEC-DED + scrub must absorb single-bit upsets";
    EXPECT_GT(sdcNone.estimate, sdcEcc.estimate) << "strict decrease None -> ECC+scrub";
    // Where did the hardened upsets go? Into Corrected/Masked, not Hang.
    const auto hangEcc = hardened.rate(TargetClass::Ram, CpuClass::Hang);
    EXPECT_EQ(hangEcc.successes, 0);
}

// ---------------------------------------------------------------------------
// Campaign-engine integration: byte-identical journals, resume, reports

TEST(InjectCampaign, JournalsAreByteIdenticalSerialVsEightWorkers)
{
    duts::CpuSystemConfig cfg = configFor(duts::HardeningMode::None);
    InjectionSupervisor seedSup(cfg);
    const auto faults = seedSup.sampleFaults(24, 0xBEEF);

    std::string serialJournal;
    std::vector<CpuClass> serialClasses;
    for (unsigned workers : {1u, 8u}) {
        const std::string path = ::testing::TempDir() + "gfi_inject_" +
                                 std::to_string(workers) + ".jsonl";
        std::remove(path.c_str());
        InjectionSupervisor sup(cfg);
        sup.runner().setWorkers(workers);
        sup.runner().setRecordTiming(false);
        sup.runner().setJournalPath(path);
        const SupervisorReport report = sup.run(faults);
        ASSERT_EQ(report.classes.size(), faults.size());
        if (workers == 1) {
            serialJournal = slurp(path);
            serialClasses = report.classes;
            EXPECT_FALSE(serialJournal.empty());
        } else {
            EXPECT_EQ(slurp(path), serialJournal)
                << "journal not byte-identical at " << workers << " workers";
            EXPECT_EQ(report.classes, serialClasses);
        }
        std::remove(path.c_str());
    }
}

TEST(InjectCampaign, RestoredJournalEntriesReclassifyIdentically)
{
    duts::CpuSystemConfig cfg = configFor(duts::HardeningMode::None);
    const std::string path = ::testing::TempDir() + "gfi_inject_resume.jsonl";
    std::remove(path.c_str());

    InjectionSupervisor first(cfg);
    first.runner().setRecordTiming(false);
    first.runner().setJournalPath(path);
    const auto faults = first.sampleFaults(12, 0xCAFE);
    const SupervisorReport fresh = first.run(faults);

    // A second supervisor over the same journal restores every entry and must
    // reach the same architectural verdicts without re-simulating.
    InjectionSupervisor second(cfg);
    second.runner().setRecordTiming(false);
    second.runner().setJournalPath(path);
    const SupervisorReport resumed = second.run(faults);
    ASSERT_EQ(resumed.classes.size(), fresh.classes.size());
    EXPECT_EQ(resumed.classes, fresh.classes);
    for (const campaign::RunResult& r : resumed.campaign.runs) {
        EXPECT_TRUE(r.diagnostics.fromJournal);
    }
    std::remove(path.c_str());
}

TEST(InjectReport, TableCsvJsonCarryTheCrossSections)
{
    InjectionSupervisor sup(configFor(duts::HardeningMode::None));
    const SupervisorReport report = sup.run(sup.sampleFaults(16, 0xF00D));
    const std::string table = report.table();
    EXPECT_NE(table.find("target class"), std::string::npos);
    EXPECT_NE(table.find("sdc"), std::string::npos);
    EXPECT_NE(table.find("all"), std::string::npos);

    const std::string csv = report.csv();
    EXPECT_EQ(csv.rfind("target_class,cpu_class,count,runs,rate,low,high\n", 0), 0u);
    // One row per (populated target class) x (cpu class).
    int populated = 0;
    for (TargetClass tc : kReportTargetClasses) {
        populated += report.runsFor(tc) > 0 ? 1 : 0;
    }
    const long rows = std::count(csv.begin(), csv.end(), '\n') - 1;
    EXPECT_EQ(rows, populated * static_cast<long>(kAllCpuClasses.size()));

    const std::string json = report.json();
    EXPECT_EQ(json.rfind("{\"samples\": 16", 0), 0u);
    for (CpuClass c : kAllCpuClasses) {
        EXPECT_NE(json.find(std::string("\"") + toString(c) + "\""), std::string::npos);
    }
}

// A class with zero samples has no rate estimate: every rendering must say
// "n/a" / null instead of the degenerate 0 % [0, 0] Wilson interval.
TEST(InjectReport, ZeroSampleClassesRenderNotAvailable)
{
    EXPECT_EQ(formatRateCell(campaign::wilsonInterval(0, 0)), "n/a");
    EXPECT_NE(formatRateCell(campaign::wilsonInterval(0, 10)), "n/a")
        << "zero count over real trials keeps its interval";

    // An empty report: every cross-section cell is a zero-sample cell.
    SupervisorReport empty;
    empty.rebuild();
    const std::string table = empty.table();
    EXPECT_NE(table.find("n/a"), std::string::npos) << table;
    EXPECT_EQ(table.find("[0.0, 0.0]"), std::string::npos) << table;

    const std::string json = empty.json();
    EXPECT_NE(json.find("\"rate\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"low\": null"), std::string::npos) << json;

    const std::string csv = empty.csv();
    if (csv.find('\n') != csv.rfind('\n')) { // any data rows at all
        EXPECT_NE(csv.find(",n/a,n/a,n/a"), std::string::npos) << csv;
    }

    // The sweep table shares the formatter: an empty entry renders n/a, not
    // a fake 0 % certainty.
    SweepReport sweep;
    SweepEntry entry;
    entry.mode = duts::HardeningMode::None;
    sweep.entries.push_back(entry);
    EXPECT_NE(sweep.table().find("n/a"), std::string::npos) << sweep.table();
}

TEST(InjectSweep, HardeningSweepComparesModes)
{
    duts::CpuSystemConfig base;
    SweepOptions options;
    options.samples = 10;
    options.seed = 0x51;
    options.recordTiming = false;
    const SweepReport sweep = runHardeningSweep(
        base, {duts::HardeningMode::None, duts::HardeningMode::EccScrub}, options);
    ASSERT_EQ(sweep.entries.size(), 2u);
    EXPECT_EQ(sweep.report(duts::HardeningMode::None).classes.size(), 10u);
    EXPECT_THROW((void)sweep.report(duts::HardeningMode::Tmr), std::out_of_range);

    const std::string table = sweep.table();
    EXPECT_NE(table.find("ECC+scrub"), std::string::npos);
    const std::string csv = sweep.csv();
    EXPECT_EQ(csv.rfind("mode,target_class,cpu_class,count,runs,rate,low,high\n", 0), 0u);
    EXPECT_NE(csv.find("ECC+scrub,"), std::string::npos);
    const std::string json = sweep.json();
    EXPECT_EQ(json.rfind("{\"sweep\": [", 0), 0u);
    EXPECT_NE(json.find("\"mode\": \"none\""), std::string::npos);
}

} // namespace
} // namespace gfi::inject
