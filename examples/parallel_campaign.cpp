// Quickstart: parallel fault-injection campaigns.
//
// The same exhaustive bit-flip campaign runs twice over the digital DUT —
// once serial (1 worker), once on the full worker pool (all cores) — and
// the program prints both wall-clock times plus proof that the
// classification is identical: results commit in fault-list order, so a
// parallel campaign's report and journal are byte-identical to a serial run.

#include "core/campaign.hpp"
#include "duts/digital_dut.hpp"
#include "util/units.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

using namespace gfi;

int main()
{
    // Campaign definition: every stored bit x 2 injection times.
    const duts::DigitalDutTestbench probe;
    const std::vector<SimTime> times{2 * kMicrosecond + 7 * kNanosecond,
                                     3 * kMicrosecond + 3 * kNanosecond};
    std::vector<fault::FaultSpec> faults;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        for (int bit = 0; bit < hook.width; ++bit) {
            for (SimTime t : times) {
                faults.emplace_back(fault::BitFlipFault{name, bit, t});
            }
        }
    }

    auto runWith = [&faults](unsigned workers, double& seconds) {
        campaign::CampaignRunner runner(
            [] { return std::make_unique<duts::DigitalDutTestbench>(); });
        runner.setWorkers(workers);
        const auto start = std::chrono::steady_clock::now();
        campaign::CampaignReport report = runner.run(faults);
        seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                      .count();
        return report;
    };

    double serialSeconds = 0.0;
    double parallelSeconds = 0.0;
    const unsigned pool = core::Executor().effectiveWorkers(); // all cores
    const auto serial = runWith(1, serialSeconds);
    const auto parallel = runWith(pool, parallelSeconds);

    std::printf("exhaustive bit-flip campaign: %zu faults\n", faults.size());
    std::printf("  serial   (1 worker):  %.3f s\n", serialSeconds);
    std::printf("  parallel (%u workers): %.3f s  (%.2fx)\n", pool, parallelSeconds,
                parallelSeconds > 0.0 ? serialSeconds / parallelSeconds : 0.0);

    const bool identical = serial.summaryTable() == parallel.summaryTable();
    std::printf("\nclassification identical to serial: %s\n", identical ? "yes" : "NO");
    std::printf("%s\n", parallel.summaryTable().c_str());
    return identical ? 0 : 1;
}
