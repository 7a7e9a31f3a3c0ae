// Reference oracle for analog step control: the paper's PLL campaigns (the
// Fig. 3 unified AMS flow and the Fig. 8 pulse sweep) classified at
// production step control must match a reference run at 10x tighter step
// control, fault for fault. The Fig. 8 sweep also keeps its
// fork-from-golden vs from-scratch byte identity.

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "pll/pll.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace gfi {
namespace {

constexpr double kPa = 1e-3;
constexpr double kPs = 1e-12;

campaign::Tolerance pllTolerance()
{
    return campaign::Tolerance{5e-3, 0.0, 200 * kPicosecond};
}

/// Production step control: the testbench elaborates lazily with defaults.
campaign::CampaignRunner productionRunner(const pll::PllConfig& cfg)
{
    return campaign::CampaignRunner([cfg] { return std::make_unique<pll::PllTestbench>(cfg); },
                                    pllTolerance());
}

/// Reference step control: every testbench (golden included) elaborates with
/// lteRelTol and lteAbsTol 10x tighter than production, and dtMax 10x tighter
/// than the bound that really sets production steps. That bound is the VCO's
/// T/24 hint (0.83 ns locked), not dtMax (1 us): 10x tighter LTE alone leaves
/// the PLL's step sequence unchanged, because the loop filter integrates
/// piecewise-constant charge-pump current that the predictor tracks exactly.
campaign::CampaignRunner referenceRunner(const pll::PllConfig& cfg)
{
    analog::SolverOptions tight;
    tight.dtMax = 1.0 / (cfg.refFrequency * cfg.dividerN * 24.0) / 10.0;
    tight.lteRelTol /= 10.0;
    tight.lteAbsTol /= 10.0;
    return campaign::CampaignRunner(
        [cfg, tight] {
            auto tb = std::make_unique<pll::PllTestbench>(cfg);
            tb->sim().elaborate(tight);
            return tb;
        },
        pllTolerance());
}

campaign::CampaignReport runQuiet(campaign::CampaignRunner& runner,
                                  const std::vector<fault::FaultSpec>& faults,
                                  SimTime cadence = -1)
{
    runner.setRecordTiming(false);
    runner.setCheckpointCadence(cadence);
    return runner.run(faults);
}

/// The reference really ran at tighter control: more accepted steps on the
/// golden run, at the options it was elaborated with.
void expectTighterGolden(const campaign::CampaignRunner& production,
                         const campaign::CampaignRunner& reference)
{
    const analog::TransientSolver& p = production.golden().sim().solver();
    const analog::TransientSolver& r = reference.golden().sim().solver();
    EXPECT_EQ(r.options().lteRelTol, p.options().lteRelTol / 10.0);
    EXPECT_GT(r.stats().acceptedSteps, p.stats().acceptedSteps);
}

void expectSameClassification(const campaign::CampaignReport& production,
                              const campaign::CampaignReport& reference)
{
    ASSERT_EQ(production.runs.size(), reference.runs.size());
    for (std::size_t i = 0; i < production.runs.size(); ++i) {
        const campaign::RunResult& p = production.runs[i];
        const campaign::RunResult& r = reference.runs[i];
        const std::string what = fault::describe(p.fault);
        EXPECT_EQ(p.outcome, r.outcome) << what;
        EXPECT_EQ(p.erredSignals, r.erredSignals) << what;
        EXPECT_EQ(p.corruptedState, r.corruptedState) << what;
        // The measured magnitudes agree too (observed: within 0.01 %, 0.5 %
        // and 0.01 %; the bounds leave about 10x margin).
        EXPECT_NEAR(p.maxAnalogDeviation, r.maxAnalogDeviation,
                    1e-3 * r.maxAnalogDeviation + 1e-6)
            << what;
        EXPECT_NEAR(p.analogTimeOutsideTol, r.analogTimeOutsideTol,
                    0.05 * r.analogTimeOutsideTol + 1e-9)
            << what;
        EXPECT_NEAR(static_cast<double>(p.totalOutputErrorTime),
                    static_cast<double>(r.totalOutputErrorTime),
                    1e-3 * static_cast<double>(r.totalOutputErrorTime) +
                        static_cast<double>(kNanosecond))
            << what;
    }
}

TEST(StepOracle, Fig3AmsCampaignMatchesTightReference)
{
    pll::PllConfig cfg;
    cfg.duration = 170 * kMicrosecond;
    const SimTime tDig = 130 * kMicrosecond + 300 * kNanosecond;
    const double tAna = 130e-6;
    auto pulse = std::make_shared<fault::TrapezoidPulse>(10 * kPa, 100 * kPs, 300 * kPs,
                                                         500 * kPs);
    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{"pll/pfd", 0, tDig},
        fault::BitFlipFault{"pll/pfd", 1, tDig},
        fault::BitFlipFault{"pll/divider", 2, tDig},
        fault::BitFlipFault{"pll/divider", 5, tDig},
        fault::CurrentPulseFault{pll::names::kSabFilter, tAna, pulse},
        fault::CurrentPulseFault{pll::names::kSabVcoOut, tAna, pulse},
        fault::ParametricFault{"pll/c2", 1.5, 0},
        fault::ParametricFault{"pll/kvco", 0.8, 0},
    };
    campaign::CampaignRunner production = productionRunner(cfg);
    campaign::CampaignRunner reference = referenceRunner(cfg);
    expectSameClassification(runQuiet(production, faults), runQuiet(reference, faults));
    expectTighterGolden(production, reference);
}

TEST(StepOracle, Fig8SweepMatchesTightReferenceAndForkMatchesScratch)
{
    pll::PllConfig cfg;
    cfg.duration = 170 * kMicrosecond;
    struct ParamSet {
        double pa, rt, ft, pw;
    };
    std::vector<fault::FaultSpec> faults;
    for (const ParamSet& p : {ParamSet{2 * kPa, 100 * kPs, 100 * kPs, 300 * kPs},
                              ParamSet{8 * kPa, 100 * kPs, 100 * kPs, 300 * kPs},
                              ParamSet{10 * kPa, 40 * kPs, 40 * kPs, 120 * kPs},
                              ParamSet{10 * kPa, 180 * kPs, 180 * kPs, 540 * kPs}}) {
        faults.emplace_back(fault::CurrentPulseFault{
            pll::names::kSabFilter, 130e-6,
            std::make_shared<fault::TrapezoidPulse>(p.pa, p.rt, p.ft, p.pw)});
    }

    campaign::CampaignRunner scratchRunner = productionRunner(cfg);
    campaign::CampaignRunner forkRunner = productionRunner(cfg);
    campaign::CampaignRunner refRunner = referenceRunner(cfg);
    const campaign::CampaignReport scratch = runQuiet(scratchRunner, faults);
    const campaign::CampaignReport forked = runQuiet(forkRunner, faults, 2 * kMicrosecond);
    EXPECT_EQ(campaign::reportToJson(forked), campaign::reportToJson(scratch));
    EXPECT_EQ(forked.summaryTable(), scratch.summaryTable());

    const campaign::CampaignReport reference = runQuiet(refRunner, faults);
    expectSameClassification(scratch, reference);
    expectTighterGolden(scratchRunner, refRunner);

    // The paper's cumulative-effect finding holds on both sides.
    for (const campaign::CampaignReport* rep : {&scratch, &reference}) {
        EXPECT_GT(rep->runs[1].maxAnalogDeviation, rep->runs[0].maxAnalogDeviation);
        EXPECT_GT(rep->runs[3].maxAnalogDeviation, rep->runs[2].maxAnalogDeviation);
    }
}

} // namespace
} // namespace gfi
