// Bit-parallel batch backend speedup on a dense digital SEU sweep: 64+
// batch-eligible faults (bit flips on every state hook, stuck-ats on every
// interconnect saboteur) over the DigitalDut. The event-driven campaign
// simulates every fault in its own scalar run; the batch backend packs up to
// 63 fault variants plus the golden reference into one word-level simulation
// per group, so the speedup approaches the lane occupancy.
//
// Emits a single JSON object (machine-readable, consumed by CI) with the
// event-driven and batched campaign wall-clock times, the speedup, and
// whether the two campaigns produced byte-identical per-fault
// classifications — the backend's determinism contract (DESIGN.md §13).
//
// Both campaigns run at one worker (recorded as "workers": 1 in the meta
// block). At auto width the event side spreads its scalar runs over every
// core while the batch side has only two groups, so the ratio measured the
// host's core count rather than the backend.

#include "fault_list_common.hpp"
#include "pll_bench_common.hpp"

#include "core/report.hpp"
#include "duts/digital_dut.hpp"

#include <cstdio>
#include <functional>

using namespace gfi;
using namespace gfi::bench;

namespace {

// Long enough that the event-driven campaign takes tenths of a second: the
// measured speedup has to clear its gate on noisy shared CI runners.
constexpr SimTime kDuration = 24 * kMicrosecond;
constexpr std::size_t kMinFaults = 120; // >= 2 nearly-full 63-lane groups
constexpr unsigned kWorkers = 1;

struct CampaignResult {
    double wallSeconds = 0;
    std::string summary;
    std::string detail;
};

CampaignResult runCampaign(const std::vector<fault::FaultSpec>& faults, bool batch)
{
    campaign::CampaignRunner runner([] {
        duts::DigitalDutConfig cfg;
        cfg.duration = kDuration;
        return std::make_unique<duts::DigitalDutTestbench>(cfg);
    });
    runner.setRecordTiming(false); // keep reports byte-comparable across modes
    runner.setBatchBackend(batch);
    runner.setFaultCollapsing(false); // measure raw lane parallelism only
    runner.setWorkers(kWorkers);
    CampaignResult out;
    campaign::CampaignReport report;
    out.wallSeconds = seconds([&] { report = runner.run(faults); });
    out.summary = report.summaryTable();
    out.detail = report.detailTable();
    return out;
}

} // namespace

int main()
{
    const std::vector<fault::FaultSpec> faults =
        digitalDutBatchFaults(kMinFaults, kDuration);
    std::fprintf(stderr, "perf_batch: %zu faults, duration %s\n", faults.size(),
                 formatTime(kDuration).c_str());

    const CampaignResult event = runCampaign(faults, false);
    std::fprintf(stderr, "  event-driven: %.3f s\n", event.wallSeconds);

    const CampaignResult batched = runCampaign(faults, true);
    std::fprintf(stderr, "  bit-parallel: %.3f s\n", batched.wallSeconds);

    const bool identical =
        batched.summary == event.summary && batched.detail == event.detail;
    const double speedup =
        batched.wallSeconds > 0 ? event.wallSeconds / batched.wallSeconds : 0.0;
    const std::size_t groups = (faults.size() + 62) / 63;

    char jsonLine[512];
    std::snprintf(jsonLine, sizeof jsonLine,
                  "\"benchmark\": \"perf_batch\", \"experiment\": "
                  "\"digital_dut_seu_sweep\", \"runs\": %zu, \"groups\": %zu, "
                  "\"event_s\": %.3f, \"batch_s\": %.3f, \"speedup\": %.2f, "
                  "\"identical\": %s",
                  faults.size(), groups, event.wallSeconds, batched.wallSeconds,
                  speedup, identical ? "true" : "false");
    const std::string doc = bench::benchJsonLine("perf_batch", jsonLine, kWorkers);
    std::fputs(doc.c_str(), stdout);
    if (!writeTextFile("BENCH_perf_batch.json", doc)) {
        std::fprintf(stderr, "warning: cannot write BENCH_perf_batch.json\n");
    }

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: batched per-fault classifications differ from event-driven\n");
        return 1;
    }
    if (speedup < 5.0) {
        std::fprintf(stderr, "FAIL: speedup %.2f below the 5x target\n", speedup);
        return 1;
    }
    return 0;
}
