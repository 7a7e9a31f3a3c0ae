// Ablation: the behavioral VCO's step bound against a tight reference.
//
// The VCO bounds every analog step of a PLL run to a fixed number of points
// per output cycle (BehavioralVco::maxStep). The PLL's verdicts come from
// V_ctrl (the loop-filter node) and from the digitized clock, whose edges
// the crossing locator places exactly, so that bound mostly sets cost; this
// bench checks that every verdict stays put on the fault population the PLL
// campaign benchmark injects. For seeds 1-10 it builds a 15-fault list of
// the same shape (four Fig. 6/8 anchors on the filter input, eight random
// trapezoid and fitted double-exponential pulses alternating between
// sab/filter_in and sab/vco_out, three PFD/divider bit flips, all between
// 102 and 104 us of a 116 us run), plus the Fig. 7/8 sweep at 130 us of a
// 170 us run. Each list runs at production step control and at a tight
// reference (dtMax fixed at T_lock/240 = 83 ps, LTE tolerances 10x
// tighter), both forking from golden checkpoints taken just before each
// injection (forked and from-scratch campaigns are byte-identical,
// tests/test_campaign_matrix.cpp).
//
// Printed per list: analog steps per simulated us of both golden runs, how
// many faults agree in outcome, erred signals and corrupted state, the
// largest peak-dV_ctrl difference between the two sides, and whether the
// paper's findings hold at production (peak dV_ctrl grows with PA and with
// PW; the Fig. 6 pulse perturbs more than one clock cycle). Exits 1 on any
// verdict mismatch or failed finding.

#include "pll_bench_common.hpp"

#include "util/rng.hpp"

#include <cmath>

using namespace gfi;
using namespace gfi::bench;

namespace {

constexpr unsigned kWorkers = 2;

/// One fault list with the duration it is simulated for.
struct FaultList {
    std::string name;
    pll::PllConfig cfg;
    std::vector<fault::FaultSpec> faults;
    bool anchored = false; ///< faults 0-3 are the paper-finding anchors
};

std::shared_ptr<const fault::TrapezoidPulse> trap(double pa, double rt, double ft, double pw)
{
    return std::make_shared<fault::TrapezoidPulse>(pa, rt, ft, pw);
}

/// The PLL campaign benchmark's fault shape at @p seed.
FaultList pulseForkList(std::uint64_t seed)
{
    FaultList list;
    list.name = "seed " + std::to_string(seed);
    list.cfg.duration = 116 * kMicrosecond;
    list.anchored = true;
    Rng rng(seed);
    const auto afterLock = [&rng] { return rng.uniform(102.1e-6, 103.9e-6); };

    const double tAnchor = afterLock();
    const double paLow = rng.uniform(2e-3, 4e-3);
    const double paHigh = rng.uniform(8e-3, 10e-3);
    for (const auto& shape : {trap(paLow, 100e-12, 100e-12, 300e-12),
                              trap(paHigh, 100e-12, 100e-12, 300e-12),
                              trap(paLow, 100e-12, 100e-12, 540e-12),
                              trap(10e-3, 100e-12, 300e-12, 500e-12)}) {
        list.faults.emplace_back(
            fault::CurrentPulseFault{pll::names::kSabFilter, tAnchor, shape});
    }
    for (int i = 0; i < 8; ++i) {
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
        list.faults.emplace_back(fault::CurrentPulseFault{sab, afterLock(), shape});
    }

    const pll::PllTestbench probe(list.cfg);
    std::vector<const digital::StateHook*> hooks;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        hooks.push_back(&hook);
    }
    for (std::size_t i = 0; i < 3 && !hooks.empty(); ++i) {
        const digital::StateHook& h = *hooks[i % hooks.size()];
        list.faults.emplace_back(fault::BitFlipFault{
            h.name, static_cast<int>(rng.below(static_cast<std::uint64_t>(h.width))),
            fromSeconds(afterLock())});
    }
    return list;
}

/// Figure 8's four parameter sets plus Figure 7's pulse in both models.
FaultList figureSweepList()
{
    FaultList list;
    list.name = "fig7/fig8";
    list.cfg.duration = 170 * kMicrosecond;
    const double tInject = 130e-6;
    const auto fig6 = trap(10e-3, 100e-12, 300e-12, 500e-12);
    for (const auto& shape :
         {trap(2e-3, 100e-12, 100e-12, 300e-12), trap(8e-3, 100e-12, 100e-12, 300e-12),
          trap(10e-3, 40e-12, 40e-12, 120e-12), trap(10e-3, 180e-12, 180e-12, 540e-12)}) {
        list.faults.emplace_back(
            fault::CurrentPulseFault{pll::names::kSabFilter, tInject, shape});
    }
    list.faults.emplace_back(fault::CurrentPulseFault{pll::names::kSabFilter, tInject, fig6});
    list.faults.emplace_back(fault::CurrentPulseFault{
        pll::names::kSabFilter, tInject,
        std::make_shared<fault::DoubleExpPulse>(fault::fitDoubleExp(*fig6))});
    return list;
}

/// Step control of the reference: a fixed absolute dtMax, independent of
/// the VCO's bound, and LTE tolerances 10x tighter than production.
analog::SolverOptions referenceOptions(const pll::PllConfig& cfg)
{
    analog::SolverOptions tight;
    tight.dtMax = 1.0 / (cfg.refFrequency * cfg.dividerN * 240.0);
    tight.lteRelTol /= 10.0;
    tight.lteAbsTol /= 10.0;
    return tight;
}

fault::TestbenchFactory makeFactory(const pll::PllConfig& cfg, bool reference)
{
    if (!reference) {
        return [cfg] { return std::make_unique<pll::PllTestbench>(cfg); };
    }
    return [cfg, opts = referenceOptions(cfg)] {
        auto tb = std::make_unique<pll::PllTestbench>(cfg);
        tb->sim().elaborate(opts);
        return tb;
    };
}

campaign::CampaignReport runForked(campaign::CampaignRunner& runner,
                                   const std::vector<fault::FaultSpec>& faults)
{
    runner.setWorkers(kWorkers);
    runner.setCheckpointCadence(1); // > 0 turns fork mode on
    runner.setRecordTiming(false);
    return runner.run(faults);
}

double goldenStepsPerUs(const campaign::CampaignRunner& runner, const pll::PllConfig& cfg)
{
    return static_cast<double>(runner.golden().sim().solver().stats().acceptedSteps) /
           (toSeconds(cfg.duration) * 1e6);
}

/// The paper's findings on an anchored list; "ok" when they hold.
std::string checkFindings(const campaign::CampaignReport& r, const pll::PllConfig& cfg)
{
    const auto dev = [&r](std::size_t i) { return r.runs.at(i).maxAnalogDeviation; };
    if (!(dev(1) > dev(0))) {
        return "peak dV_ctrl does not grow with PA";
    }
    if (!(dev(2) > dev(0))) {
        return "peak dV_ctrl does not grow with PW";
    }
    const campaign::RunResult& fig6 = r.runs.at(3);
    if (fig6.firstOutputError < 0 ||
        fig6.lastOutputErrorEnd - fig6.firstOutputError <= cfg.nominalOutputPeriod()) {
        return "the Fig. 6 pulse perturbs at most one clock cycle";
    }
    return "ok";
}

} // namespace

int main()
{
    std::vector<FaultList> lists;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        lists.push_back(pulseForkList(seed));
    }
    lists.push_back(figureSweepList());

    std::printf("=== Ablation: the VCO step bound vs a tight reference ===\n\n");
    TextTable t;
    t.setHeader({"list", "faults", "steps/us (production)", "steps/us (reference)",
                 "verdicts agree", "max |d(peak dV_ctrl)|", "findings"});
    bool ok = true;
    for (const FaultList& list : lists) {
        campaign::CampaignRunner production(makeFactory(list.cfg, false), pllTolerance());
        campaign::CampaignRunner reference(makeFactory(list.cfg, true), pllTolerance());
        const campaign::CampaignReport p = runForked(production, list.faults);
        const campaign::CampaignReport r = runForked(reference, list.faults);

        std::size_t agree = 0;
        double maxDiff = 0.0;
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            const campaign::RunResult& a = p.runs[i];
            const campaign::RunResult& b = r.runs[i];
            if (a.outcome == b.outcome && a.erredSignals == b.erredSignals &&
                a.corruptedState == b.corruptedState) {
                ++agree;
            } else {
                std::printf("MISMATCH %s: %s: %s vs %s\n", list.name.c_str(),
                            fault::describe(a.fault).c_str(), campaign::toString(a.outcome),
                            campaign::toString(b.outcome));
            }
            maxDiff = std::max(maxDiff, std::fabs(a.maxAnalogDeviation - b.maxAnalogDeviation));
        }
        const std::string findings = list.anchored ? checkFindings(p, list.cfg) : "-";
        ok = ok && agree == p.runs.size() && (findings == "ok" || findings == "-");
        t.addRow({list.name, std::to_string(list.faults.size()),
                  formatDouble(goldenStepsPerUs(production, list.cfg), 5),
                  formatDouble(goldenStepsPerUs(reference, list.cfg), 5),
                  std::to_string(agree) + "/" + std::to_string(p.runs.size()),
                  formatSi(maxDiff, "V"), findings});
    }
    t.print();
    std::printf("\n%s\n", ok ? "every verdict matches the reference and every finding holds"
                             : "FAILED: see the mismatches above");
    return ok ? 0 : 1;
}
