// Static fault collapsing speedup on a Figure-8-style interconnect sweep:
// SET pulses and stuck-at faults over every saboteur of the chain DUT, whose
// six chained zero-delay saboteurs are provably equivalent injection sites.
// A full campaign simulates every fault; the collapsed campaign simulates
// one representative per equivalence class and statically expands the
// verdicts, so the speedup approaches runs / classes (the shrink factor).
//
// Emits a single JSON object (machine-readable, consumed by CI) with the
// full and collapsed campaign wall-clock times, the shrink factor, the
// speedup, and whether the two campaigns produced byte-identical per-fault
// classifications.
//
// Both campaigns run at one worker (recorded as "workers": 1 in the meta
// block), so the speedup measures the collapse, not the host's core count.

#include "fault_list_common.hpp"
#include "pll_bench_common.hpp"

#include "analyze/collapse.hpp"
#include "core/report.hpp"
#include "duts/chain_dut.hpp"

#include <cstdio>
#include <functional>

using namespace gfi;
using namespace gfi::bench;

namespace {

struct CampaignResult {
    double wallSeconds = 0;
    std::string detail;
};

// Long enough that the full campaign takes tenths of a second: the measured
// speedup has to clear its gate on noisy shared CI runners.
constexpr SimTime kDuration = 40 * kMicrosecond;
constexpr unsigned kWorkers = 1;

CampaignResult runCampaign(const std::vector<fault::FaultSpec>& faults, bool collapse)
{
    campaign::CampaignRunner runner([] {
        duts::ChainDutConfig cfg;
        cfg.duration = kDuration;
        return std::make_unique<duts::ChainDutTestbench>(cfg);
    });
    runner.setRecordTiming(false); // keep reports byte-comparable across modes
    runner.setFaultCollapsing(collapse);
    runner.setWorkers(kWorkers);
    CampaignResult out;
    campaign::CampaignReport report;
    out.wallSeconds = seconds([&] { report = runner.run(faults); });
    out.detail = report.detailTable();
    return out;
}

} // namespace

int main()
{
    // The paper's SET parameter sweep, restated for the digital chain (shared
    // with the other perf tools via fault_list_common.hpp).
    const std::vector<fault::FaultSpec> faults = chainSetSweepFaults();

    duts::ChainDutConfig probeCfg;
    probeCfg.duration = kDuration;
    duts::ChainDutTestbench tb(probeCfg);
    const analyze::CollapsePlan plan = analyze::collapseFaults(tb, faults);
    const double shrink = plan.classes() > 0
                              ? static_cast<double>(faults.size()) /
                                    static_cast<double>(plan.classes())
                              : 0.0;
    std::fprintf(stderr, "perf_collapse: %zu faults -> %zu classes (shrink %.2fx)\n",
                 faults.size(), plan.classes(), shrink);

    const CampaignResult full = runCampaign(faults, false);
    std::fprintf(stderr, "  full campaign:      %.3f s\n", full.wallSeconds);

    const CampaignResult collapsed = runCampaign(faults, true);
    std::fprintf(stderr, "  collapsed campaign: %.3f s\n", collapsed.wallSeconds);

    const bool identical = collapsed.detail == full.detail;
    const double speedup =
        collapsed.wallSeconds > 0 ? full.wallSeconds / collapsed.wallSeconds : 0.0;

    char jsonLine[512];
    std::snprintf(jsonLine, sizeof jsonLine,
                  "\"benchmark\": \"perf_collapse\", \"experiment\": "
                  "\"chain_set_sweep\", \"runs\": %zu, \"classes\": %zu, "
                  "\"shrink\": %.2f, \"full_s\": %.3f, \"collapsed_s\": %.3f, "
                  "\"speedup\": %.2f, \"identical\": %s",
                  faults.size(), plan.classes(), shrink, full.wallSeconds,
                  collapsed.wallSeconds, speedup, identical ? "true" : "false");
    const std::string doc = bench::benchJsonLine("perf_collapse", jsonLine, kWorkers);
    std::fputs(doc.c_str(), stdout);
    if (!writeTextFile("BENCH_perf_collapse.json", doc)) {
        std::fprintf(stderr, "warning: cannot write BENCH_perf_collapse.json\n");
    }

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: collapsed per-fault classifications differ from full\n");
        return 1;
    }
    if (speedup < 1.5) {
        std::fprintf(stderr, "FAIL: speedup %.2f below the 1.5x target\n", speedup);
        return 1;
    }
    return 0;
}
