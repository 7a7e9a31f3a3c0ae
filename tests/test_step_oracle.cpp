// Reference oracle for analog step control: the paper's PLL campaigns (the
// Fig. 3 unified AMS flow, the Fig. 8 pulse sweep and fitted
// double-exponential pulses on both saboteurs) classified at production
// step control must match a reference run at much tighter step control,
// fault for fault. The pulse campaigns also keep their fork-from-golden vs
// from-scratch byte identity. A deterministic gate pins how many steps a
// PLL golden run takes and which bound limited them.

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "pll/pll.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

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
/// lteRelTol and lteAbsTol 10x tighter than production, and dtMax at
/// T_lock/240 (83 ps), far below the bound that really sets production
/// steps. That bound is the VCO's maxStep hint, not dtMax (1 us): 10x
/// tighter LTE alone leaves the PLL's step sequence unchanged, because the
/// loop filter integrates piecewise-constant charge-pump current that the
/// predictor tracks exactly. The reference dtMax is an absolute figure: it
/// does not follow the VCO's hint, so the oracle stays as tight when
/// production steps coarsen.
campaign::CampaignRunner referenceRunner(const pll::PllConfig& cfg)
{
    analog::SolverOptions tight;
    tight.dtMax = 1.0 / (cfg.refFrequency * cfg.dividerN * 240.0);
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
                                  bool fork = false)
{
    runner.setRecordTiming(false);
    runner.setCheckpointCadence(fork ? 1 : 0); // > 0 turns fork mode on
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

/// Same outcome, erred signals and corrupted state, fault for fault.
void expectSameVerdicts(const campaign::CampaignReport& production,
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
    }
}

/// Same verdicts, and the measured magnitudes agree too.
void expectSameClassification(const campaign::CampaignReport& production,
                              const campaign::CampaignReport& reference)
{
    expectSameVerdicts(production, reference);
    ASSERT_EQ(production.runs.size(), reference.runs.size());
    for (std::size_t i = 0; i < production.runs.size(); ++i) {
        const campaign::RunResult& p = production.runs[i];
        const campaign::RunResult& r = reference.runs[i];
        const std::string what = fault::describe(p.fault);
        // Observed on the trapezoid campaigns at the VCO's 4-point bound:
        // within 0.0001 %, 2.5 % and 0.0007 % (0.03 %, 2.5 % and 0.07 % at
        // an 8-point bound with V_ctrl frozen over each step; that rule
        // fails the output error time at 4 points). The time outside
        // tolerance is read off samples one step apart.
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
    const campaign::CampaignReport forked = runQuiet(forkRunner, faults, true);
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

TEST(StepOracle, DoubleExpPulsesOnBothSaboteursMatchTightReference)
{
    // The fitted double exponential is the pulse model the campaign
    // benchmark alternates with the trapezoid; here it is injected on both
    // saboteurs at the default duration, forking from golden.
    const pll::PllConfig cfg;
    const double tInject = 200e-6;
    std::vector<fault::FaultSpec> faults;
    for (const fault::TrapezoidPulse& fig8 :
         {fault::TrapezoidPulse(8 * kPa, 100 * kPs, 100 * kPs, 300 * kPs),
          fault::TrapezoidPulse(10 * kPa, 180 * kPs, 180 * kPs, 540 * kPs)}) {
        const auto dexp = std::make_shared<fault::DoubleExpPulse>(fault::fitDoubleExp(fig8));
        for (const char* sab : {pll::names::kSabFilter, pll::names::kSabVcoOut}) {
            faults.emplace_back(fault::CurrentPulseFault{sab, tInject, dexp});
        }
    }

    campaign::CampaignRunner scratchRunner = productionRunner(cfg);
    campaign::CampaignRunner forkRunner = productionRunner(cfg);
    const campaign::CampaignReport scratch = runQuiet(scratchRunner, faults);
    const campaign::CampaignReport forked = runQuiet(forkRunner, faults, true);
    EXPECT_EQ(campaign::reportToJson(forked), campaign::reportToJson(scratch));

    // The reference forks too (forked and from-scratch campaigns are
    // byte-identical, see above), which keeps it cheap at 250 us. Verdicts
    // match; the magnitudes do not meet the trapezoid campaigns' bounds: on
    // the filter input production reads peak dV_ctrl 0.3 % and output error
    // time 0.3 % below the reference, at any VCO bound. The pulse's own
    // step bound (CurrentSaboteur::maxStep, duration / 25 over ten fall
    // time constants) resolves its smooth peak with only a few steps; the
    // VCO bound plays no part, which the runner below shows.
    campaign::CampaignRunner refRunner = referenceRunner(cfg);
    const campaign::CampaignReport reference = runQuiet(refRunner, faults, true);
    expectSameVerdicts(forked, reference);
    expectTighterGolden(forkRunner, refRunner);

    // Production with dtMax at T_lock/24 steps at least as finely as a
    // 24-points-per-cycle VCO bound once locked: every verdict and magnitude
    // agrees with production within the bounds above.
    analog::SolverOptions fine;
    fine.dtMax = 1.0 / (cfg.refFrequency * cfg.dividerN * 24.0);
    campaign::CampaignRunner fineRunner(
        [cfg, fine] {
            auto tb = std::make_unique<pll::PllTestbench>(cfg);
            tb->sim().elaborate(fine);
            return tb;
        },
        pllTolerance());
    expectSameClassification(forked, runQuiet(fineRunner, faults, true));
}

TEST(StepOracle, PllGoldenStepsFollowTheVcoBound)
{
    // BehavioralVco::maxStep allows the step whose phase advance is exactly
    // 2 pi / 4 (V_ctrl extrapolated to the step's midpoint), so a 20 us
    // golden run (lock acquisition, 30 -> ~50 MHz) takes at least 4 steps
    // per VCO cycle, plus the few the loop filter's LTE, the digital
    // breakpoints and the crossings cut (observed: 3,740 steps over 841
    // cycles, 11 % above the floor: hint 3,294, LTE 333, breakpoints 70,
    // crossings 43). The window fails at a bound of 5 or more points per
    // cycle, and at 2.
    constexpr double kPointsPerCycle = 4.0;
    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond;
    pll::PllTestbench tb(cfg);
    tb.run();

    const analog::SolverStats& st = tb.sim().solver().stats();
    const double cycles = tb.vco().phase() / (2.0 * M_PI);
    EXPECT_GT(cycles, 600.0); // 30 MHz at the start, rising towards 50 MHz
    EXPECT_GE(static_cast<double>(st.acceptedSteps), kPointsPerCycle * cycles);
    EXPECT_LE(static_cast<double>(st.acceptedSteps), 1.15 * kPointsPerCycle * cycles);
    EXPECT_EQ(st.rejectedSteps, 0u);
    EXPECT_EQ(st.crossingFallbacks, 0u);

    // Every accepted step is billed to exactly one limiting bound, and the
    // VCO's hint is the one that limits most of them (observed 88 %).
    EXPECT_EQ(std::accumulate(st.stepsLimitedBy.begin(), st.stepsLimitedBy.end(),
                              std::uint64_t{0}),
              st.acceptedSteps);
    const auto hint = st.stepsLimitedBy[static_cast<std::size_t>(obs::StepLimit::Hint)];
    EXPECT_GT(hint, st.acceptedSteps * 4 / 5);
    EXPECT_EQ(st.stepsLimitedBy[static_cast<std::size_t>(obs::StepLimit::DtMax)], 0u);
}

} // namespace
} // namespace gfi
