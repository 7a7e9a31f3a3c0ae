// Processor-injection supervisor: architectural SEU campaign + hardening
// sweep over the TinyCpu system.
//
// Samples (cycle, target, bit) triples over the full architectural state —
// PC, accumulator, RUN/HALT FSM, data RAM, output register — and runs the
// same seeded campaign against five hardening variants. Each run gets a
// COAST-style verdict (masked / corrected / detected / SDC / hang /
// contained); the report prints per-target-class cross-sections with Wilson
// 95 % intervals and writes the sweep as JSON.
//
//   usage: example_processor_campaign [samples] [json-path]
//            [--metrics FILE] [--trace FILE]
//
// Exits nonzero unless hardening the RAM (SEC-DED + scrubbing) strictly
// reduces the RAM-target SDC cross-section versus the unprotected system —
// the flow's whole point is measuring that improvement before silicon.

#include "inject/sweep.hpp"
#include "obs/telemetry.hpp"
#include "util/file.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

using namespace gfi;

int main(int argc, char** argv)
{
    std::vector<std::string> positional;
    std::string metricsPath;
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--metrics") {
            metricsPath = value();
        } else if (arg == "--trace") {
            tracePath = value();
        } else {
            positional.push_back(arg);
        }
    }
    const std::size_t samples =
        !positional.empty()
            ? static_cast<std::size_t>(std::strtoul(positional[0].c_str(), nullptr, 10))
            : 160;
    const std::string jsonPath = positional.size() > 1 ? positional[1] : "cpu_sweep.json";

    std::printf("=== Processor-injection supervisor: hardening sweep ===\n\n");
    std::printf("TinyCpu system, 50 MHz, %zu seeded architectural SEUs per variant\n"
                "(bit-weighted over PC/ACC/FSM/RAM/out-register, uniform over the\n"
                "golden execution window).\n\n",
                samples);

    const duts::CpuSystemConfig base;
    inject::SweepOptions options;
    options.samples = samples;
    options.seed = 0x5EED;
    obs::Telemetry telemetry;
    if (!metricsPath.empty() || !tracePath.empty()) {
        telemetry.setMetricsPath(metricsPath);
        telemetry.setTracePath(tracePath);
        options.telemetry = &telemetry;
    }
    const inject::SweepReport sweep = inject::runHardeningSweep(
        base,
        {duts::HardeningMode::None, duts::HardeningMode::Tmr, duts::HardeningMode::Dwc,
         duts::HardeningMode::EccScrub, duts::HardeningMode::TmrEccScrub},
        options);

    std::printf("%s\n", sweep.table().c_str());
    std::printf("Per-target-class cross-sections, unprotected vs ECC+scrub:\n\n");
    std::printf("--- none ---\n%s\n", sweep.report(duts::HardeningMode::None).table().c_str());
    std::printf("--- ECC+scrub ---\n%s\n",
                sweep.report(duts::HardeningMode::EccScrub).table().c_str());

    try {
        util::writeFileOrThrow(jsonPath, sweep.json() + "\n", "sweep json");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    std::printf("sweep written to %s\n", jsonPath.c_str());
    if (options.telemetry != nullptr) {
        telemetry.flush();
    }

    // Self-check: the RAM-target SDC cross-section must strictly decrease
    // when the data memory is protected.
    const campaign::Proportion sdcNone = sweep.rate(
        duts::HardeningMode::None, inject::TargetClass::Ram,
        inject::CpuClass::SilentDataCorruption);
    const campaign::Proportion sdcEcc = sweep.rate(
        duts::HardeningMode::EccScrub, inject::TargetClass::Ram,
        inject::CpuClass::SilentDataCorruption);
    std::printf("\nRAM-target SDC: none %.3f (%d/%d)  ->  ECC+scrub %.3f (%d/%d)\n",
                sdcNone.estimate, sdcNone.successes, sdcNone.trials, sdcEcc.estimate,
                sdcEcc.successes, sdcEcc.trials);
    if (!(sdcNone.estimate > sdcEcc.estimate)) {
        std::printf("FAIL: hardening the RAM did not reduce the SDC cross-section\n");
        return 1;
    }
    std::printf("OK: SEC-DED + scrubbing strictly reduced the RAM SDC cross-section\n");
    return 0;
}
