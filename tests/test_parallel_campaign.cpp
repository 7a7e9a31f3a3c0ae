// Parallel campaign executor: determinism and thread-safety guarantees.
//
// The contract under test: a campaign sharded across N workers produces
// *identical observable output* to the serial run — byte-identical JSONL
// journal, identical per-fault classifications, identical summary/JSON
// reports and an in-order progress-callback sequence — for digital, PLL and
// ADC campaigns, at 1/2/4/8 workers, with retry and preflight enabled, and
// across mid-campaign journal resume. Plus regression coverage for the
// thread-safety of CampaignJournal::append and the runner's live counters
// (hammered from 8 threads; run these under GFI_SANITIZE=thread in CI).

#include "adc/sar.hpp"
#include "analog/passive.hpp"
#include "analog/sources.hpp"
#include "core/campaign.hpp"
#include "core/executor.hpp"
#include "core/faultlist.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/stats.hpp"
#include "duts/digital_dut.hpp"
#include "pll/pll.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

namespace gfi::campaign {
namespace {

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------------
// core::Executor

TEST(Executor, CommitsInIndexOrderAtAnyWidth)
{
    for (unsigned workers : {2u, 4u, 8u}) {
        core::Executor exec(workers);
        std::vector<std::size_t> committed;
        const std::size_t done = exec.forEachOrdered(64, [&](std::size_t i) {
            // Uneven per-job cost so completion order scrambles.
            volatile std::uint64_t sink = 0;
            for (std::size_t k = 0; k < (i % 7) * 10'000; ++k) {
                sink = sink + 1;
            }
            return [&committed, i] { committed.push_back(i); };
        });
        EXPECT_EQ(done, 64u);
        std::vector<std::size_t> expected(64);
        std::iota(expected.begin(), expected.end(), 0u);
        EXPECT_EQ(committed, expected) << "out-of-order commits at " << workers << " workers";
        committed.clear();
    }
}

TEST(Executor, SingleWorkerRunsInlineOnCallingThread)
{
    core::Executor exec(1);
    const std::thread::id caller = std::this_thread::get_id();
    bool inline_ = true;
    exec.forEachOrdered(8, [&](std::size_t) {
        inline_ = inline_ && std::this_thread::get_id() == caller;
        return core::CommitFn{};
    });
    EXPECT_TRUE(inline_);
    EXPECT_EQ(exec.forEachOrdered(0, [](std::size_t) { return core::CommitFn{}; }), 0u);
}

TEST(Executor, DefaultWorkersHonorsGfiJobsEnv)
{
    ::setenv("GFI_JOBS", "3", 1);
    EXPECT_EQ(core::Executor::defaultWorkers(), 3u);
    ::setenv("GFI_JOBS", "not-a-number", 1);
    EXPECT_GE(core::Executor::defaultWorkers(), 1u);
    ::setenv("GFI_JOBS", "0", 1);
    EXPECT_GE(core::Executor::defaultWorkers(), 1u);
    ::unsetenv("GFI_JOBS");
    EXPECT_GE(core::Executor::defaultWorkers(), 1u);
}

TEST(Executor, ProduceFailureRethrowsWithCleanCommittedPrefix)
{
    core::Executor exec(4);
    std::vector<std::size_t> committed;
    EXPECT_THROW(exec.forEachOrdered(32,
                                     [&](std::size_t i) -> core::CommitFn {
                                         if (i == 10) {
                                             throw std::runtime_error("job 10 exploded");
                                         }
                                         return [&committed, i] { committed.push_back(i); };
                                     }),
                 std::runtime_error);
    // Indices are handed out in order, so every job before the failed one was
    // produced and must have committed; nothing at or past the gap may.
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(committed, expected);
}

TEST(Executor, CommitFailureRethrowsAndStopsCommitting)
{
    core::Executor exec(4);
    std::vector<std::size_t> committed;
    EXPECT_THROW(exec.forEachOrdered(32,
                                     [&](std::size_t i) -> core::CommitFn {
                                         return [&committed, i] {
                                             if (i == 5) {
                                                 throw std::runtime_error("commit 5 failed");
                                             }
                                             committed.push_back(i);
                                         };
                                     }),
                 std::runtime_error);
    std::vector<std::size_t> expected(5);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(committed, expected);
}

TEST(Executor, CancelDrainsInFlightWorkIntoCleanPrefix)
{
    core::Executor exec(4);
    std::vector<std::size_t> committed;
    const std::size_t done = exec.forEachOrdered(256, [&](std::size_t i) -> core::CommitFn {
        return [&, i] {
            if (i == 3) {
                exec.requestCancel();
            }
            committed.push_back(i);
        };
    });
    ASSERT_EQ(done, committed.size());
    EXPECT_GE(done, 4u);     // the cancelling commit itself still lands
    EXPECT_LT(done, 256u);   // bounded window: the tail was never fetched
    for (std::size_t i = 0; i < committed.size(); ++i) {
        EXPECT_EQ(committed[i], i); // contiguous prefix, in order
    }
}

TEST(Executor, BoundedCommitWindowStillCompletes)
{
    core::Executor exec(8);
    exec.setCommitWindow(2); // aggressive backpressure
    std::vector<std::size_t> committed;
    EXPECT_EQ(exec.forEachOrdered(64,
                                  [&](std::size_t i) -> core::CommitFn {
                                      return [&committed, i] { committed.push_back(i); };
                                  }),
              64u);
    EXPECT_EQ(committed.size(), 64u);
}

// ---------------------------------------------------------------------------
// Watchdog budgets under parallelism

TEST(Watchdog, ScaledForStretchesOnlyOversubscribedWallClock)
{
    WatchdogConfig base;
    base.wallClockSeconds = 1.0;
    base.digitalWaves = 5'000;
    base.analogSteps = 7'000;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    const WatchdogConfig same = base.scaledFor(1);
    EXPECT_DOUBLE_EQ(same.wallClockSeconds, 1.0);

    const WatchdogConfig wide = base.scaledFor(cores * 4);
    EXPECT_DOUBLE_EQ(wide.wallClockSeconds, 4.0);
    // Deterministic simulated-work budgets never scale.
    EXPECT_EQ(wide.digitalWaves, base.digitalWaves);
    EXPECT_EQ(wide.analogSteps, base.analogSteps);

    WatchdogConfig unlimited;
    EXPECT_DOUBLE_EQ(unlimited.scaledFor(cores * 4).wallClockSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Parallel == serial equivalence

struct CampaignOutput {
    std::string journal; ///< raw JSONL bytes
    std::string summary;
    std::string json;
    CampaignReport report;
};

CampaignOutput runAt(const fault::TestbenchFactory& factory,
                     const std::function<void(CampaignRunner&)>& configure,
                     const std::vector<fault::FaultSpec>& faults, unsigned workers,
                     const std::string& tag)
{
    const std::string path = ::testing::TempDir() + "gfi_parallel_" + tag + "_" +
                             std::to_string(workers) + ".jsonl";
    std::remove(path.c_str());
    CampaignRunner runner(factory);
    runner.setWorkers(workers);
    runner.setRecordTiming(false); // wall clock is the only nondeterministic field
    runner.setJournalPath(path);
    if (configure) {
        configure(runner);
    }
    CampaignOutput out;
    out.report = runner.run(faults);
    out.journal = slurp(path);
    out.summary = out.report.summaryTable();
    out.json = reportToJson(out.report);
    std::remove(path.c_str());
    return out;
}

void expectParallelEqualsSerial(const fault::TestbenchFactory& factory,
                                const std::function<void(CampaignRunner&)>& configure,
                                const std::vector<fault::FaultSpec>& faults,
                                const std::string& tag)
{
    const CampaignOutput serial = runAt(factory, configure, faults, 1, tag);
    ASSERT_EQ(serial.report.runs.size(), faults.size());
    EXPECT_FALSE(serial.journal.empty());
    for (unsigned workers : {2u, 4u, 8u}) {
        const CampaignOutput parallel = runAt(factory, configure, faults, workers, tag);
        EXPECT_EQ(parallel.journal, serial.journal)
            << tag << ": journal not byte-identical at " << workers << " workers";
        EXPECT_EQ(parallel.summary, serial.summary)
            << tag << ": summary differs at " << workers << " workers";
        EXPECT_EQ(parallel.json, serial.json)
            << tag << ": JSON report differs at " << workers << " workers";
        ASSERT_EQ(parallel.report.runs.size(), serial.report.runs.size());
        for (std::size_t i = 0; i < serial.report.runs.size(); ++i) {
            EXPECT_EQ(parallel.report.runs[i].outcome, serial.report.runs[i].outcome)
                << tag << ": fault " << i << " reclassified at " << workers << " workers";
            EXPECT_EQ(parallel.report.runs[i].erredSignals, serial.report.runs[i].erredSignals);
            EXPECT_EQ(parallel.report.runs[i].diagnostics.attempts,
                      serial.report.runs[i].diagnostics.attempts);
        }
    }
}

TEST(ParallelCampaign, DigitalDutEquivalence)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    // Bit-flips on sequential elements plus SET/stuck-at saboteur faults —
    // the paper's Figure 2 fault population in miniature.
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const duts::DigitalDutTestbench probe;
    const auto& registry = probe.sim().digital().instrumentation();
    const SimTime t = 2 * kMicrosecond + 7 * kNanosecond;
    for (const auto& [name, hook] : registry.all()) {
        faults.emplace_back(fault::BitFlipFault{name, 0, t});
        if (hook.width > 1) {
            faults.emplace_back(fault::BitFlipFault{name, hook.width - 1, t + 40 * kNanosecond});
        }
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        faults.emplace_back(fault::DigitalPulseFault{sab, t, 25 * kNanosecond});
        faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
    }
    ASSERT_GE(faults.size(), 10u);
    expectParallelEqualsSerial(
        factory,
        [](CampaignRunner& r) {
            r.setRetryPolicy(RetryPolicy{.maxAttempts = 2});
            ASSERT_TRUE(r.preflightEnabled());
        },
        faults, "digital");
}

TEST(ParallelCampaign, PllEquivalence)
{
    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond; // enough loop activity, cheap per run
    const auto factory = [cfg] { return std::make_unique<pll::PllTestbench>(cfg); };
    auto pulse = std::make_shared<fault::TrapezoidPulse>(2e-3, 300e-12, 300e-12, 1e-9);
    const pll::PllTestbench probe(cfg);
    const std::string reg = probe.sim().digital().instrumentation().names().front();
    const std::vector<fault::FaultSpec> faults{
        fault::FaultSpec{},
        fault::CurrentPulseFault{pll::names::kSabFilter, 8e-6, pulse},
        fault::CurrentPulseFault{pll::names::kSabVcoOut, 12e-6, pulse},
        fault::BitFlipFault{reg, 0, 10 * kMicrosecond},
        fault::ParametricFault{"pll/kvco", 1.15, 5 * kMicrosecond},
    };
    expectParallelEqualsSerial(
        factory, [](CampaignRunner& r) { r.setRetryPolicy(RetryPolicy{.maxAttempts = 2}); },
        faults, "pll");
}

TEST(ParallelCampaign, AdcEquivalence)
{
    adc::SarConfig cfg;
    cfg.inputLevels = {1.7, 2.9}; // two conversions keep the run short
    const auto factory = [cfg] { return std::make_unique<adc::SarAdcTestbench>(cfg); };
    auto pulse = std::make_shared<fault::TrapezoidPulse>(5e-3, 500e-12, 500e-12, 1e-9);
    const adc::SarAdcTestbench probe(cfg);
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const auto names = probe.sim().digital().instrumentation().names();
    for (std::size_t i = 0; i < names.size() && i < 4; ++i) {
        faults.emplace_back(fault::BitFlipFault{names[i], 0, 12 * kMicrosecond});
    }
    faults.emplace_back(fault::CurrentPulseFault{"sab/dac_out", 14e-6, pulse});
    faults.emplace_back(fault::CurrentPulseFault{"sab/vin", 3e-6, pulse});
    expectParallelEqualsSerial(
        factory, [](CampaignRunner& r) { r.setRetryPolicy(RetryPolicy{.maxAttempts = 2}); },
        faults, "adc");
}

// Abnormal outcomes (Diverged / SimError / Timeout) and retries must also be
// deterministic across worker counts: every attempt runs on a fresh bench
// with deterministic budgets (wave counts, not wall clock).
TEST(ParallelCampaign, AbnormalOutcomesAndRetriesEquivalence)
{
    const auto factory = [] {
        auto tb = std::make_unique<fault::Testbench>();
        auto& ana = tb->sim().analog();
        auto& dig = tb->sim().digital();
        const analog::NodeId n1 = ana.node("n1");
        auto& src = ana.add<analog::CurrentSource>(ana, "src", n1, analog::kGround, 1e-3);
        ana.add<analog::Resistor>(ana, "r1", n1, analog::kGround, 1e3);
        tb->observeAnalog("n1");
        tb->addParameter("src/amps", [&src](double f) { src.setLevel(1e-3 * f); });

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
        tb->addParameter("osc/en", [&en](double) { en.forceValue(digital::Logic::One); });
        dig.scheduler().setDeltaLimit(5'000);
        tb->setDuration(100 * kNanosecond);
        return tb;
    };
    const std::vector<fault::FaultSpec> faults{
        fault::FaultSpec{},
        fault::ParametricFault{"src/amps", std::nan(""), 0},      // Diverged (retried)
        fault::ParametricFault{"osc/en", 1.0, 10 * kNanosecond},  // SimError
        fault::ParametricFault{"src/amps", 2.0, 0},               // clean deviation
    };
    expectParallelEqualsSerial(
        factory,
        [](CampaignRunner& r) {
            r.setRetryPolicy(RetryPolicy{.maxAttempts = 2, .stepTighten = 0.25});
        },
        faults, "abnormal");
}

// ---------------------------------------------------------------------------
// Randomized stress: seeded fault lists, random widths, mid-campaign resume

TEST(ParallelCampaign, RandomizedResumeMatchesSerialExactly)
{
    Rng rng(0xC0FFEE);
    const duts::DigitalDutTestbench probe;
    for (int trial = 0; trial < 3; ++trial) {
        const auto faults = fault::randomBitFlips(
            probe, 10, {kMicrosecond, 3 * kMicrosecond}, rng);
        ASSERT_EQ(faults.size(), 10u);
        const std::string tag = "resume" + std::to_string(trial);

        // Serial reference for the full list.
        const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
        const CampaignOutput reference = runAt(factory, {}, faults, 1, tag + "_ref");

        // Phase 1: a "killed" campaign journals only the first k faults.
        const std::size_t k = 1 + rng.below(8);
        const std::string path =
            ::testing::TempDir() + "gfi_parallel_resume_" + std::to_string(trial) + ".jsonl";
        std::remove(path.c_str());
        {
            CampaignRunner partial(factory);
            partial.setRecordTiming(false);
            partial.setJournalPath(path);
            (void)partial.run({faults.begin(), faults.begin() + static_cast<long>(k)});
        }

        // Phase 2: parallel resume of the full list at a random width.
        const unsigned workers = 2 + static_cast<unsigned>(rng.below(7));
        auto builds = std::make_shared<std::atomic<int>>(0);
        CampaignRunner resumed([builds] {
            builds->fetch_add(1, std::memory_order_relaxed);
            return std::make_unique<duts::DigitalDutTestbench>();
        });
        resumed.setRecordTiming(false);
        resumed.setWorkers(workers);
        resumed.setJournalPath(path);
        const CampaignReport report = resumed.run(faults);

        // Restored entries were skipped exactly like a serial resume...
        EXPECT_EQ(builds->load(), 1 + static_cast<int>(faults.size() - k))
            << "trial " << trial << ": resumed parallel campaign re-simulated "
            << "journaled faults at " << workers << " workers";
        for (std::size_t i = 0; i < faults.size(); ++i) {
            EXPECT_EQ(report.runs[i].diagnostics.fromJournal, i < k);
            EXPECT_EQ(report.runs[i].outcome, reference.report.runs[i].outcome);
        }
        // ... and the journal converged to the exact serial bytes.
        EXPECT_EQ(slurp(path), reference.journal) << "trial " << trial;
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------------------
// Thread-safety regressions (run under TSan in CI)

TEST(ParallelCampaign, JournalAppendIsThreadSafeUnderHammering)
{
    const std::string path = ::testing::TempDir() + "gfi_journal_hammer.jsonl";
    std::remove(path.c_str());
    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    {
        CampaignJournal journal(path);
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&journal, t] {
                for (int i = 0; i < kPerThread; ++i) {
                    RunResult r;
                    r.fault = fault::BitFlipFault{"hammer/reg", t, i * kNanosecond};
                    r.outcome = (i % 2) == 0 ? Outcome::Silent : Outcome::Failure;
                    r.erredSignals = {"out[" + std::to_string(t) + "]"};
                    journal.append(static_cast<std::size_t>(t * kPerThread + i), r);
                }
            });
        }
        for (std::thread& th : threads) {
            th.join();
        }
    }
    // Every line must be whole: a torn interleaving would fail to parse and
    // silently drop checkpoints on resume.
    const auto entries = CampaignJournal::loadWithStats(path).entries;
    EXPECT_EQ(entries.size(), static_cast<std::size_t>(kThreads * kPerThread));
    std::remove(path.c_str());
}

TEST(ParallelCampaign, OutcomeTallyIsThreadSafeUnderHammering)
{
    OutcomeTally tally;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tally] {
            for (int i = 0; i < kPerThread; ++i) {
                tally.add((i % 3) == 0 ? Outcome::Failure : Outcome::Silent);
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    EXPECT_EQ(tally.total(), kThreads * kPerThread);
    const auto snap = tally.snapshot();
    int sum = 0;
    for (const auto& [outcome, n] : snap) {
        sum += n;
    }
    EXPECT_EQ(sum, kThreads * kPerThread);
}

TEST(ParallelCampaign, ProgressCallbackIsOrderedAndSerialized)
{
    CampaignRunner runner([] { return std::make_unique<duts::DigitalDutTestbench>(); });
    runner.setWorkers(8);
    std::vector<fault::FaultSpec> faults;
    for (int bit = 0; bit < 8; ++bit) {
        faults.emplace_back(fault::BitFlipFault{"dut/out_reg", bit, 2 * kMicrosecond});
    }
    std::vector<std::size_t> order; // unsynchronized on purpose: the runner
                                    // guarantees serialized, in-order calls
    (void)runner.run(faults, [&order](std::size_t i, const RunResult&) {
        order.push_back(i);
    });
    std::vector<std::size_t> expected(faults.size());
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
}

} // namespace
} // namespace gfi::campaign
