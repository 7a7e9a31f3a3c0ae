// Fork-from-golden speedup on the paper's Figure 8 experiment: a sweep of
// current pulses on the PLL filter input, injected late in the run. A
// from-scratch campaign re-simulates the whole lock-in prefix for every
// fault; fork mode restores golden's checkpoint at its last event before the
// injection and re-runs only the post-injection suffix, so the speedup
// approaches
// (runs x duration) / (duration + runs x suffix).
//
// Emits a single JSON object (machine-readable, consumed by CI) with the
// scratch and forked campaign wall-clock times, the speedup, and whether the
// two campaigns produced byte-identical reports.
//
// Both campaigns run at one worker (recorded as "workers": 1 in the meta
// block). With auto width, 8 faults spread over a few workers, so the ratio
// measures scheduling luck on the host rather than the work fork mode saves.

#include "fault_list_common.hpp"
#include "pll_bench_common.hpp"

#include "core/report.hpp"

#include <cstdio>
#include <functional>

using namespace gfi;
using namespace gfi::bench;

namespace {

constexpr unsigned kWorkers = 1; // pinned: the 2x gate compares serial work

struct CampaignResult {
    double wallSeconds = 0;
    std::string summary;
    std::string json;
    std::size_t checkpoints = 0;
};

CampaignResult runCampaign(const pll::PllConfig& cfg,
                           const std::vector<fault::FaultSpec>& faults, bool fork)
{
    campaign::CampaignRunner runner = makePllRunner(cfg);
    runner.setRecordTiming(false); // keep reports byte-comparable across modes
    runner.setCheckpointCadence(fork ? 1 : 0); // > 0 turns fork mode on
    runner.setWorkers(kWorkers);
    CampaignResult out;
    campaign::CampaignReport report;
    out.wallSeconds = seconds([&] { report = runner.run(faults); });
    out.summary = report.summaryTable();
    out.json = campaign::reportToJson(report);
    out.checkpoints = runner.checkpointCount();
    return out;
}

} // namespace

int main()
{
    pll::PllConfig cfg;
    cfg.duration = 40 * kMicrosecond;

    // Figure 8's pulse parameter sweep (shared with the other perf tools via
    // fault_list_common.hpp).
    const std::vector<fault::FaultSpec> faults = pllFigure8PulseFaults();

    std::fprintf(stderr, "perf_snapshot: %zu faults, duration %s\n", faults.size(),
                 formatTime(cfg.duration).c_str());

    const CampaignResult scratch = runCampaign(cfg, faults, false);
    std::fprintf(stderr, "  from-scratch: %.3f s\n", scratch.wallSeconds);

    const CampaignResult forked = runCampaign(cfg, faults, true);
    std::fprintf(stderr, "  fork-from-golden: %.3f s (%zu checkpoints)\n",
                 forked.wallSeconds, forked.checkpoints);

    const bool identical =
        forked.summary == scratch.summary && forked.json == scratch.json;
    const double speedup =
        forked.wallSeconds > 0 ? scratch.wallSeconds / forked.wallSeconds : 0.0;

    char jsonLine[512];
    std::snprintf(jsonLine, sizeof jsonLine,
                  "\"benchmark\": \"perf_snapshot\", \"experiment\": \"fig8_pulse_sweep\", "
                  "\"runs\": %zu, \"checkpoints\": %zu, \"scratch_s\": %.3f, "
                  "\"fork_s\": %.3f, \"speedup\": %.2f, \"identical\": %s",
                  faults.size(), forked.checkpoints, scratch.wallSeconds,
                  forked.wallSeconds, speedup, identical ? "true" : "false");
    const std::string doc = bench::benchJsonLine("perf_snapshot", jsonLine, kWorkers);
    std::fputs(doc.c_str(), stdout);
    if (!writeTextFile("BENCH_perf_snapshot.json", doc)) {
        std::fprintf(stderr, "warning: cannot write BENCH_perf_snapshot.json\n");
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: forked campaign output differs from scratch\n");
        return 1;
    }
    if (speedup < 2.0) {
        std::fprintf(stderr, "FAIL: speedup %.2f below the 2x target\n", speedup);
        return 1;
    }
    return 0;
}
