// Reproduces paper Figure 6: "Fault injection results in the PLL block".
//
// Experiment (paper Section 5.2): the PLL (500 kHz in, 50 MHz out) is locked;
// at t = 0.17 ms a current pulse with RT = 100 ps, FT = 300 ps, PW = 500 ps,
// PA = 10 mA is injected by the saboteur at the input of the low-pass filter
// (the charge-pump output). The paper's finding: the pulse lasts 2.5 % of one
// generated clock period, yet the filter output (the VCO input) is disturbed
// for much longer, so the clock frequency is perturbed over a large number of
// consecutive cycles — not one.
//
// This bench prints the Figure 6 waveforms as series (nominal vs faulty VCO
// input voltage, generated clock period per cycle) and the headline numbers.
// It also writes BENCH_pll.json: wall time of the golden and the faulty run
// next to their analog kernel work (accepted and rejected steps, linear
// solves, located crossings) per simulated microsecond.

#include "fault_list_common.hpp"
#include "pll_bench_common.hpp"

using namespace gfi;
using namespace gfi::bench;

namespace {

/// `"<prefix>_s": wall, "<prefix>_<counter>_per_us": ...` for one run.
std::string kernelWorkFields(const std::string& prefix, double wallSeconds,
                             const analog::SolverStats& st, double simulatedUs)
{
    auto perUs = [simulatedUs](std::uint64_t n) {
        return formatDouble(static_cast<double>(n) / simulatedUs, 6);
    };
    return "\"" + prefix + "_s\": " + formatDouble(wallSeconds, 6) + ", \"" + prefix +
           "_accepted_steps_per_us\": " + perUs(st.acceptedSteps) + ", \"" + prefix +
           "_rejected_steps_per_us\": " + perUs(st.rejectedSteps) + ", \"" + prefix +
           "_linear_solves_per_us\": " + perUs(st.linearSolves) + ", \"" + prefix +
           "_crossings_per_us\": " + perUs(st.crossingsLocated);
}

} // namespace

int main()
{
    pll::PllConfig cfg;
    cfg.duration = 210 * kMicrosecond;
    const double tInject = 170e-6; // the paper's injection time, after lock

    std::printf("=== Figure 6: current pulse at the low-pass filter input ===\n\n");
    std::printf("PLL: %s reference -> %s output (divider /%d)\n",
                formatSi(cfg.refFrequency, "Hz").c_str(),
                formatSi(cfg.refFrequency * cfg.dividerN, "Hz").c_str(), cfg.dividerN);

    auto runner = makePllRunner(cfg);
    const double goldenSeconds = seconds([&] { runner.runGolden(); });
    const auto& goldenRec = runner.golden().recorder();
    const SimTime nominal = cfg.nominalOutputPeriod();
    std::printf("Golden run: lock at %s; nominal output period %s\n\n",
                formatTime(pll::lockTime(goldenRec.digitalTrace(pll::names::kFout), nominal))
                    .c_str(),
                formatTime(nominal).c_str());

    fault::CurrentPulseFault f;
    f.saboteur = pll::names::kSabFilter;
    f.timeSeconds = tInject;
    f.shape = std::make_shared<fault::TrapezoidPulse>(10e-3, 100e-12, 300e-12, 500e-12);
    std::printf("Injecting %s at t = %s\n", f.shape->describe().c_str(),
                formatSi(tInject, "s").c_str());
    std::printf("Pulse width / clock period = %.1f %%\n\n",
                100.0 * f.shape->duration() / toSeconds(nominal));

    const auto result = runner.runOne(fault::FaultSpec{f});
    std::unique_ptr<fault::Testbench> faulty;
    const double faultySeconds =
        seconds([&] { faulty = runFaulty(runner, fault::FaultSpec{f}); });

    // --- series 1: VCO input voltage around the injection --------------------
    std::printf("VCO input voltage (nominal vs with fault injection):\n");
    printVctrlSeries(goldenRec.analogTrace(pll::names::kVctrl),
                     faulty->recorder().analogTrace(pll::names::kVctrl), tInject,
                     {-2e-6, -0.5e-6, 0.3e-9, 0.6e-9, 10e-9, 100e-9, 0.5e-6, 1e-6, 2e-6,
                      4e-6, 6e-6, 8e-6, 10e-6, 15e-6, 20e-6, 30e-6});

    // --- series 2: generated clock period per cycle ---------------------------
    std::printf("\nGenerated clock (F_out) period around the injection:\n");
    const auto periods =
        trace::extractPeriods(faulty->recorder().digitalTrace(pll::names::kFout));
    TextTable t;
    t.setHeader({"cycle time", "period", "deviation from 20 ns"});
    SimTime lastPrinted = 0;
    for (const auto& p : periods) {
        const double rel =
            static_cast<double>(p.period - nominal) / static_cast<double>(nominal);
        const bool nearInjection =
            p.edge > fromSeconds(tInject) - 2 * nominal && p.edge < fromSeconds(tInject) + 100 * nominal;
        // Print a decimated view: every 8th cycle in the perturbed region.
        if (nearInjection && p.edge - lastPrinted >= 8 * nominal) {
            t.addRow({formatTime(p.edge), formatTime(p.period),
                      formatDouble(100.0 * rel, 3) + " %"});
            lastPrinted = p.edge;
        }
    }
    t.print();

    // --- headline numbers -----------------------------------------------------
    const auto pert = trace::compareClocks(goldenRec.digitalTrace(pll::names::kFout),
                                           faulty->recorder().digitalTrace(pll::names::kFout),
                                           1e-3, fromSeconds(tInject - 1e-6));
    std::printf("\nSummary (paper's qualitative findings):\n");
    std::printf("  pulse width                        : 500 ps (2.5 %% of the clock period)\n");
    std::printf("  VCO-input disturbance > 5 mV for   : %s  (>> pulse width)\n",
                formatSi(result.analogTimeOutsideTol, "s").c_str());
    std::printf("  max VCO-input deviation            : %s\n",
                formatSi(result.maxAnalogDeviation, "V").c_str());
    std::printf("  perturbed clock cycles (>0.1 %%)    : %d consecutive-region cycles\n",
                pert.perturbedCycles);
    std::printf("  perturbation span                  : %s\n",
                formatTime(pert.perturbationSpan()).c_str());
    std::printf("  max period deviation               : %.3f %%\n",
                100.0 * pert.maxRelDeviation);
    std::printf("  classification                     : %s (PLL relocks)\n",
                campaign::toString(result.outcome));

    const double simulatedUs = toSeconds(cfg.duration) * 1e6;
    const std::string doc = benchJsonLine(
        "fig6_pll_injection",
        "\"benchmark\": \"fig6_pll_injection\", \"simulated_us\": " +
            formatDouble(simulatedUs, 6) + ", " +
            kernelWorkFields("golden", goldenSeconds, runner.golden().sim().solver().stats(),
                             simulatedUs) +
            ", " +
            kernelWorkFields("faulty", faultySeconds, faulty->sim().solver().stats(),
                             simulatedUs),
        /*workers=*/1);
    if (!writeTextFile("BENCH_pll.json", doc)) {
        std::fprintf(stderr, "warning: cannot write BENCH_pll.json\n");
    }
    return 0;
}
