// Tests for fault-list generation and campaign statistics.

#include "core/faultlist.hpp"
#include "core/stats.hpp"
#include "duts/digital_dut.hpp"

#include <gtest/gtest.h>

namespace gfi::fault {
namespace {

TEST(FaultList, AllBitFlipsCoversEveryBitAndTime)
{
    duts::DigitalDutTestbench tb;
    const std::vector<SimTime> times{kMicrosecond, 2 * kMicrosecond};
    const auto faults = allBitFlips(tb, times);
    const int bits = tb.sim().digital().instrumentation().totalBits();
    EXPECT_EQ(faults.size(), static_cast<std::size_t>(bits) * times.size());
    for (const auto& f : faults) {
        EXPECT_TRUE(std::holds_alternative<BitFlipFault>(f));
    }
}

TEST(FaultList, RandomBitFlipsDeterministicUnderSeed)
{
    duts::DigitalDutTestbench tb;
    Rng rngA(123);
    Rng rngB(123);
    const auto a = randomBitFlips(tb, 50, {0, 4 * kMicrosecond}, rngA);
    const auto b = randomBitFlips(tb, 50, {0, 4 * kMicrosecond}, rngB);
    ASSERT_EQ(a.size(), 50u);
    ASSERT_EQ(b.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(describe(a[i]), describe(b[i]));
    }
}

TEST(FaultList, RandomBitFlipsStayInWindow)
{
    duts::DigitalDutTestbench tb;
    Rng rng(7);
    const auto faults = randomBitFlips(tb, 200, {kMicrosecond, 3 * kMicrosecond}, rng);
    for (const auto& f : faults) {
        const SimTime t = injectionTime(f);
        EXPECT_GE(t, kMicrosecond);
        EXPECT_LE(t, 3 * kMicrosecond);
    }
}

TEST(FaultList, AdjacentDoubleFlips)
{
    duts::DigitalDutTestbench tb;
    const auto faults = adjacentDoubleFlips(tb, {kMicrosecond});
    EXPECT_FALSE(faults.empty());
    for (const auto& f : faults) {
        ASSERT_TRUE(std::holds_alternative<DoubleBitFlipFault>(f));
        const auto& d = std::get<DoubleBitFlipFault>(f);
        EXPECT_EQ(d.bitB, d.bitA + 1);
    }
}

TEST(FaultList, SetPulseCrossProduct)
{
    duts::DigitalDutTestbench tb;
    const auto faults =
        allSetPulses(tb, {kMicrosecond, 2 * kMicrosecond}, {kNanosecond, 10 * kNanosecond});
    // 2 saboteurs x 2 times x 2 widths.
    EXPECT_EQ(faults.size(), 8u);
}

TEST(FaultList, CurrentPulseSweep)
{
    auto shape = std::make_shared<TrapezoidPulse>(1e-3, 1e-12, 1e-12, 3e-12);
    const auto faults = currentPulseSweep({"sab/a", "sab/b"}, {1e-6, 2e-6}, {shape});
    EXPECT_EQ(faults.size(), 4u);
    for (const auto& f : faults) {
        EXPECT_TRUE(std::holds_alternative<CurrentPulseFault>(f));
    }
}

TEST(FaultList, RandomCurrentPulsesRespectRanges)
{
    Rng rng(99);
    const auto faults = randomCurrentPulses({"sab/x"}, 100, {1e-6, 2e-6}, {1e-3, 10e-3},
                                            {100e-12, 1e-9}, rng);
    ASSERT_EQ(faults.size(), 100u);
    for (const auto& f : faults) {
        const auto& cp = std::get<CurrentPulseFault>(f);
        EXPECT_GE(cp.timeSeconds, 1e-6);
        EXPECT_LE(cp.timeSeconds, 2e-6);
        const auto* trap = dynamic_cast<const TrapezoidPulse*>(cp.shape.get());
        ASSERT_NE(trap, nullptr);
        EXPECT_GE(trap->amplitude(), 1e-3 * 0.999);
        EXPECT_LE(trap->amplitude(), 10e-3 * 1.001);
        EXPECT_GE(trap->width(), 100e-12 * 0.999);
        EXPECT_LE(trap->width(), 1e-9 * 1.001);
    }
}

TEST(FaultList, DedupeDropsRepeatsKeepsOrder)
{
    const BitFlipFault flip{"dut/out_reg", 2, kMicrosecond};
    const DigitalPulseFault pulse{"sab/a", kMicrosecond, kNanosecond};
    const std::vector<FaultSpec> faults{
        FaultSpec{},       // golden
        FaultSpec{flip},   // kept
        FaultSpec{pulse},  // kept
        FaultSpec{flip},   // duplicate of [1]
        FaultSpec{},       // duplicate golden
        FaultSpec{BitFlipFault{"dut/out_reg", 3, kMicrosecond}}, // distinct bit
        FaultSpec{pulse},  // duplicate of [2]
    };
    const auto unique = dedupe(faults);
    ASSERT_EQ(unique.size(), 4u);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(unique[0]));
    EXPECT_EQ(describe(unique[1]), describe(FaultSpec{flip}));
    EXPECT_EQ(describe(unique[2]), describe(FaultSpec{pulse}));
    EXPECT_EQ(std::get<BitFlipFault>(unique[3]).bit, 3);

    // Already-unique lists pass through untouched; empty stays empty.
    EXPECT_EQ(dedupe(unique).size(), 4u);
    EXPECT_TRUE(dedupe({}).empty());
}

TEST(FaultList, DoubleFlipArmsAndRuns)
{
    campaign::CampaignRunner runner(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    DoubleBitFlipFault f{"dut/out_reg", 2, 3, 2 * kMicrosecond + 7 * kNanosecond};
    const auto r = runner.runOne(FaultSpec{f});
    EXPECT_NE(r.outcome, campaign::Outcome::Silent);
}

} // namespace
} // namespace gfi::fault

namespace gfi::campaign {
namespace {

TEST(Stats, WilsonIntervalBasics)
{
    const auto p = wilsonInterval(50, 100);
    EXPECT_NEAR(p.estimate, 0.5, 1e-12);
    EXPECT_LT(p.low, 0.5);
    EXPECT_GT(p.high, 0.5);
    EXPECT_NEAR(p.high - p.low, 2.0 * 1.96 * 0.05, 0.01); // ~ +/- 9.8 %
}

TEST(Stats, WilsonBehavedAtExtremes)
{
    const auto zero = wilsonInterval(0, 40);
    EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
    EXPECT_DOUBLE_EQ(zero.low, 0.0);
    EXPECT_GT(zero.high, 0.0); // "we saw nothing" still has an upper bound
    EXPECT_LT(zero.high, 0.15);

    const auto all = wilsonInterval(40, 40);
    EXPECT_DOUBLE_EQ(all.high, 1.0);
    EXPECT_LT(all.low, 1.0);
    EXPECT_GT(all.low, 0.85);

    const auto empty = wilsonInterval(0, 0);
    EXPECT_EQ(empty.trials, 0);
}

TEST(Stats, RequiredSamples)
{
    // Classic result: ~9604 samples for +/- 1 % at 95 %.
    EXPECT_NEAR(requiredSamples(0.01), 9604, 1);
    EXPECT_NEAR(requiredSamples(0.05), 385, 1);
}

TEST(Stats, OutcomeRatesOverReport)
{
    CampaignReport report;
    auto push = [&](Outcome o) {
        RunResult r;
        r.outcome = o;
        report.runs.push_back(r);
    };
    for (int i = 0; i < 6; ++i) {
        push(Outcome::Silent);
    }
    for (int i = 0; i < 3; ++i) {
        push(Outcome::TransientError);
    }
    push(Outcome::Failure);

    const auto rates = outcomeRates(report);
    EXPECT_NEAR(rates.silent.estimate, 0.6, 1e-12);
    EXPECT_NEAR(rates.transient.estimate, 0.3, 1e-12);
    EXPECT_NEAR(rates.failure.estimate, 0.1, 1e-12);
    EXPECT_NEAR(rates.effective.estimate, 0.4, 1e-12);

    const std::string table = ratesTable(rates);
    EXPECT_NE(table.find("any effect"), std::string::npos);
    EXPECT_NE(table.find("95 % interval"), std::string::npos);
}

TEST(Stats, OutcomeRatesCountAbnormalRuns)
{
    // Aborted, timed-out and diverged runs get their own row, so the outcome
    // rows sum to the run count.
    CampaignReport report;
    for (const Outcome o : kAllOutcomes) {
        RunResult r;
        r.outcome = o;
        report.runs.push_back(r);
    }
    const auto rates = outcomeRates(report);
    EXPECT_EQ(rates.abnormal.successes, 3);
    EXPECT_EQ(rates.silent.successes + rates.latent.successes + rates.transient.successes +
                  rates.failure.successes + rates.abnormal.successes,
              static_cast<int>(report.runs.size()));
    EXPECT_NE(ratesTable(rates).find("| abnormal"), std::string::npos);
}

} // namespace
} // namespace gfi::campaign
