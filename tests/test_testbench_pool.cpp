// Pooled testbenches: the campaign runner re-runs each worker's testbench
// instead of building one per fault.
//
// The contract under test: on a purely digital, PRE006-clean design a worker
// builds once and every later first attempt restores its testbench (from the
// pre-start checkpoint, or from a fork checkpoint); retries, parametric
// faults and attempts after an abnormal outcome build fresh; a restored
// testbench carries nothing of its previous run into the next verdict; and
// run() leaves no pooled testbench behind. Byte identity of pooled campaigns
// with fresh builds, per design and mode, is test_campaign_matrix.cpp's.

#include "campaign_harness.hpp"

#include "core/campaign.hpp"
#include "duts/cpu_system.hpp"
#include "duts/digital_dut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>

namespace gfi::campaign {
namespace {

/// Counts factory builds and testbenches still alive.
struct BuildLedger {
    std::atomic<int> builds{0};
    std::atomic<int> alive{0};
};

/// A testbench of type @p Tb that keeps a BuildLedger's count of the live
/// instances.
template <typename Tb>
class Tracked final : public Tb {
public:
    explicit Tracked(std::shared_ptr<BuildLedger> ledger) : ledger_(std::move(ledger))
    {
        ledger_->builds.fetch_add(1);
        ledger_->alive.fetch_add(1);
    }
    ~Tracked() override { ledger_->alive.fetch_sub(1); }
    Tracked(const Tracked&) = delete;
    Tracked& operator=(const Tracked&) = delete;

private:
    std::shared_ptr<BuildLedger> ledger_;
};

/// A DigitalDut factory that also registers a no-op parameter, so the list
/// can hold parametric faults.
fault::TestbenchFactory dutFactory(const std::shared_ptr<BuildLedger>& ledger)
{
    return [ledger]() -> std::unique_ptr<fault::Testbench> {
        auto tb = std::make_unique<Tracked<duts::DigitalDutTestbench>>(ledger);
        tb->addParameter("dut/nop", [](double) {});
        return tb;
    };
}

std::vector<fault::FaultSpec> dutFlips(int n)
{
    const duts::DigitalDutTestbench probe;
    const auto names = probe.sim().digital().instrumentation().names();
    std::vector<fault::FaultSpec> faults;
    for (int i = 0; i < n; ++i) {
        faults.emplace_back(fault::BitFlipFault{names[static_cast<std::size_t>(i) % names.size()],
                                                0, kMicrosecond + i * 37 * kNanosecond});
    }
    return faults;
}

TEST(TestbenchPool, OneBuildPerWorkerAndNothingLeftAfterRun)
{
    const auto faults = dutFlips(12);
    for (const unsigned workers : {1u, 3u}) {
        for (const bool fork : {false, true}) {
            SCOPED_TRACE(std::to_string(workers) + " workers, fork " + (fork ? "on" : "off"));
            auto ledger = std::make_shared<BuildLedger>();
            CampaignRunner runner(dutFactory(ledger));
            runner.setWorkers(workers);
            runner.setCheckpointCadence(fork ? 1 : 0); // > 0 turns fork mode on
            (void)runner.run(faults);
            if (workers == 1) {
                EXPECT_EQ(ledger->builds.load(), 2) << "the golden testbench plus one";
            } else {
                EXPECT_LE(ledger->builds.load(), 1 + static_cast<int>(workers));
            }
            EXPECT_EQ(ledger->alive.load(), 1) << "only the golden testbench outlives run()";
        }
    }
}

// Fresh-path attempts build their own testbench and drop it: a parametric
// fault (its setter changes state no snapshot holds) and a retry. An
// abnormal first attempt drops its pooled testbench, so the next first
// attempt builds again. At one worker the count is exact.
TEST(TestbenchPool, FreshPathAttemptsBuildAndAbnormalOutcomesDrop)
{
    std::vector<fault::FaultSpec> faults = dutFlips(2);
    faults.insert(faults.begin() + 1, fault::ParametricFault{"dut/nop", 2.0, kMicrosecond});
    faults.emplace_back(fault::BitFlipFault{"no/such/hook", 0, kMicrosecond}); // SimError
    faults.emplace_back(dutFlips(3).back());

    auto ledger = std::make_shared<BuildLedger>();
    CampaignRunner runner(dutFactory(ledger));
    runner.setWorkers(1);
    runner.setPreflight(false); // let the unknown target reach the runner
    runner.setRetryPolicy(RetryPolicy{.maxAttempts = 2, .retrySimError = true});
    const CampaignReport report = runner.run(faults);

    ASSERT_EQ(report.runs.size(), 5u);
    EXPECT_EQ(report.runs[3].outcome, Outcome::SimError);
    EXPECT_EQ(report.runs[3].diagnostics.attempts, 2);
    // golden + fault 0 (pool empty) + the parametric fault + the retry of
    // fault 3 + fault 4 (fault 3's first attempt dropped the pooled one).
    EXPECT_EQ(ledger->builds.load(), 5);
    EXPECT_EQ(ledger->alive.load(), 1);
}

// The CPU supervisor's hang flag and meta-hook overlays live on the
// testbench, outside the circuit: a pooled testbench re-run after a hang
// (or after a write into a meta-hook) must not report it again. Each fault
// is followed by a clean run on the same, single pooled testbench.
TEST(TestbenchPool, SupervisorStateDoesNotLeakIntoTheNextRun)
{
    const std::vector<fault::FaultSpec> faults{
        fault::StateWriteFault{"sys/ram/w16", 17, kMicrosecond}, // odd stride: hangs
        fault::FaultSpec{},
        fault::StateWriteFault{duts::kDetectedHook, 1, kMicrosecond},
        fault::FaultSpec{},
        fault::BitFlipFault{duts::kMemImageHook, 3, kMicrosecond},
        fault::FaultSpec{},
    };
    auto ledger = std::make_shared<BuildLedger>();
    CampaignRunner runner(
        [ledger] { return std::make_unique<Tracked<duts::CpuSystemTestbench>>(ledger); });
    runner.setWorkers(1);
    const CampaignReport report = runner.run(faults);

    ASSERT_EQ(report.runs.size(), faults.size());
    EXPECT_EQ(ledger->builds.load(), 2) << "the faults shared one pooled testbench";
    const auto& first = report.runs[0].corruptedState;
    EXPECT_NE(std::find(first.begin(), first.end(), duts::kHangHook), first.end())
        << "the odd stride no longer hangs the program";
    for (const std::size_t i : {2u, 4u}) {
        EXPECT_FALSE(report.runs[i].corruptedState.empty()) << "fault " << i;
    }
    for (const std::size_t i : {1u, 3u, 5u}) {
        EXPECT_EQ(report.runs[i].outcome, Outcome::Silent) << "run " << i;
        EXPECT_TRUE(report.runs[i].corruptedState.empty()) << "run " << i;
    }
}

} // namespace
} // namespace gfi::campaign
