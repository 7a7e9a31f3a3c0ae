// Parallel campaign executor: determinism and thread-safety guarantees.
//
// The contract under test: the executor commits in index order at any
// width; a campaign resumed mid-way at a random width converges to the
// serial journal bytes without re-simulating journaled faults; progress
// callbacks arrive in order. Per-design serial == parallel equivalence
// (digital, PLL, ADC, abnormal outcomes with retries) is one axis of
// test_campaign_matrix.cpp. Plus regression coverage for the thread-safety of CampaignJournal::append
// and the runner's live counters (hammered from 8 threads; run these under
// GFI_SANITIZE=thread in CI).

#include "campaign_harness.hpp"

#include "core/campaign.hpp"
#include "core/executor.hpp"
#include "core/faultlist.hpp"
#include "core/journal.hpp"
#include "core/stats.hpp"
#include "duts/digital_dut.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

namespace gfi::campaign {
namespace {

// ---------------------------------------------------------------------------
// core::Executor

TEST(Executor, CommitsInIndexOrderAtAnyWidth)
{
    for (unsigned workers : {2u, 4u, 8u}) {
        core::Executor exec(workers);
        std::vector<std::size_t> committed;
        exec.forEachOrdered(64, [&](std::size_t i) {
            // Uneven per-job cost so completion order scrambles.
            volatile std::uint64_t sink = 0;
            for (std::size_t k = 0; k < (i % 7) * 10'000; ++k) {
                sink = sink + 1;
            }
            return [&committed, i] { committed.push_back(i); };
        });
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
    bool produced = false;
    exec.forEachOrdered(0, [&](std::size_t) {
        produced = true;
        return core::CommitFn{};
    });
    EXPECT_FALSE(produced);
}

TEST(Executor, DefaultWorkersIsHardwareConcurrency)
{
    const unsigned cores = std::thread::hardware_concurrency();
    EXPECT_EQ(core::Executor::defaultWorkers(), cores != 0 ? cores : 1u);
    EXPECT_EQ(core::Executor().effectiveWorkers(), core::Executor::defaultWorkers());
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

TEST(Executor, BoundedCommitWindowStillCompletes)
{
    // 8 workers give a 32-slot window. Index 0 is the slowest job, so the
    // other workers fill the window and block on it until 0 commits; a lost
    // wakeup on that wait hangs the test.
    core::Executor exec(8);
    std::atomic<bool> zeroCommitted{false};
    std::atomic<std::size_t> pastWindow{0};
    std::vector<std::size_t> committed;
    exec.forEachOrdered(256, [&](std::size_t i) -> core::CommitFn {
        if (i == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        } else if (i >= 32 && !zeroCommitted.load()) {
            pastWindow.fetch_add(1); // handed out beyond the window
        }
        return [&committed, &zeroCommitted, i] {
            committed.push_back(i);
            zeroCommitted.store(true);
        };
    });
    EXPECT_EQ(pastWindow.load(), 0u);
    std::vector<std::size_t> expected(256);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(committed, expected);
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
        const test::CampaignOutput reference =
            test::runCampaign(factory, faults, "parallel_" + tag + "_ref",
                              [](CampaignRunner& r) { r.setWorkers(1); });

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
        auto runs = std::make_shared<std::atomic<int>>(0);
        CampaignRunner resumed([builds, runs] {
            builds->fetch_add(1, std::memory_order_relaxed);
            return std::make_unique<test::Counted<duts::DigitalDutTestbench>>(runs);
        });
        resumed.setRecordTiming(false);
        resumed.setWorkers(workers);
        resumed.setJournalPath(path);
        const CampaignReport report = resumed.run(faults);

        // Restored entries were skipped exactly like a serial resume: the
        // golden run plus one simulation per journal-less fault...
        EXPECT_EQ(runs->load(), 1 + static_cast<int>(faults.size() - k))
            << "trial " << trial << ": resumed parallel campaign re-simulated "
            << "journaled faults at " << workers << " workers";
        // ... on at most one testbench per worker besides the golden one
        // (bit flips on a digital design re-run pooled testbenches).
        EXPECT_LE(builds->load(), 1 + static_cast<int>(workers)) << "trial " << trial;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            EXPECT_EQ(report.runs[i].diagnostics.fromJournal, i < k);
            EXPECT_EQ(report.runs[i].outcome, reference.report.runs[i].outcome);
        }
        // ... and the journal converged to the exact serial bytes.
        EXPECT_EQ(test::slurp(path), reference.journal) << "trial " << trial;
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
