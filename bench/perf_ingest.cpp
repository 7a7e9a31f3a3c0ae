// External-netlist ingestion performance: parser throughput over a generated
// ISCAS-85-style corpus, plus the content-addressed golden store's
// cold-vs-warm campaign timing. The warm pass replays digest-verified
// verdicts from disk without simulating anything, so it must beat the cold
// campaign by at least 2x while reproducing the report byte for byte — the
// store's memoization contract (DESIGN.md §14).
//
// Emits a single JSON object (machine-readable, consumed by CI) with the
// parse throughput, both campaign times, the cache speedup and the
// byte-identity verdict. Both campaigns run at one worker (recorded as
// "workers": 1 in the meta block).

#include "fault_list_common.hpp"
#include "pll_bench_common.hpp"

#include "core/report.hpp"
#include "io/golden_store.hpp"
#include "io/ingest.hpp"
#include "io/netlist.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>

using namespace gfi;
using namespace gfi::bench;

namespace {

constexpr int kInputs = 8;
constexpr int kLayers = 9;
constexpr int kGatesPerLayer = 8;  // 72 gates, ~160 stuck-at faults
constexpr int kParseRepeats = 200; // parser throughput sample size
constexpr unsigned kWorkers = 1;

/// Deterministic layered benchmark netlist: every layer reads the previous
/// one, gate kinds cycle through the whole grammar.
std::string generateBenchText()
{
    std::ostringstream out;
    out << "# generated ingest benchmark circuit\n";
    for (int i = 0; i < kInputs; ++i) {
        out << "INPUT(i" << i << ")\n";
    }
    for (int g = 0; g < kGatesPerLayer; ++g) {
        out << "OUTPUT(L" << (kLayers - 1) << "_" << g << ")\n";
    }
    const char* kinds[] = {"AND", "OR", "XOR", "NAND", "NOR", "XNOR"};
    for (int l = 0; l < kLayers; ++l) {
        for (int g = 0; g < kGatesPerLayer; ++g) {
            const std::string a =
                l == 0 ? "i" + std::to_string(g % kInputs)
                       : "L" + std::to_string(l - 1) + "_" + std::to_string(g);
            const std::string b =
                l == 0 ? "i" + std::to_string((g + 3) % kInputs)
                       : "L" + std::to_string(l - 1) + "_" +
                             std::to_string((g + 1) % kGatesPerLayer);
            out << "L" << l << "_" << g << " = " << kinds[(l + g) % 6] << "(" << a
                << ", " << b << ")\n";
        }
    }
    return out.str();
}

} // namespace

int main()
{
    const std::string text = generateBenchText();

    // --- parser throughput ---------------------------------------------------
    io::NetlistDesc desc;
    const double parseSeconds = seconds([&] {
        for (int i = 0; i < kParseRepeats; ++i) {
            desc = io::parseNetlist(text, "perf_ingest.bench");
        }
    });
    const double bytesParsed = static_cast<double>(text.size()) * kParseRepeats;
    const double mbPerSecond =
        parseSeconds > 0 ? bytesParsed / parseSeconds / 1e6 : 0.0;
    std::fprintf(stderr, "perf_ingest: %zu gates, %d parses in %.3f s (%.1f MB/s)\n",
                 desc.gates.size(), kParseRepeats, parseSeconds, mbPerSecond);

    // --- cold campaign vs warm store replay ----------------------------------
    io::IngestConfig config;
    config.patternCount = 64;
    const io::IngestWorkload workload = io::makeWorkload(desc, config);
    std::fprintf(stderr, "  fault list: %zu stuck-ats over %zu nets\n",
                 workload.faults.size(), workload.netlist->nets().size());

    const std::string storeRoot = "perf_ingest_store";
    std::filesystem::remove_all(storeRoot);
    io::GoldenStore store(storeRoot);

    campaign::CampaignRunner coldRunner(workload.factory());
    coldRunner.setWorkers(kWorkers);
    io::CachedCampaign cold;
    const double coldSeconds =
        seconds([&] { cold = io::runCampaignCached(coldRunner, workload, store); });
    std::fprintf(stderr, "  cold campaign: %.3f s (%s)\n", coldSeconds,
                 cold.hit ? "unexpected hit" : "recorded");

    campaign::CampaignRunner warmRunner(workload.factory());
    warmRunner.setWorkers(kWorkers);
    io::CachedCampaign warm;
    const double warmSeconds =
        seconds([&] { warm = io::runCampaignCached(warmRunner, workload, store); });
    std::fprintf(stderr, "  warm replay:   %.3f s (%s)\n", warmSeconds,
                 warm.hit ? "hit" : "unexpected miss");

    const bool identical =
        campaign::reportToJson(warm.report) == campaign::reportToJson(cold.report) &&
        io::renderAnsText(workload, warm.report) == io::renderAnsText(workload, cold.report);
    const double speedup = warmSeconds > 0 ? coldSeconds / warmSeconds : 0.0;

    char jsonLine[512];
    std::snprintf(jsonLine, sizeof jsonLine,
                  "\"benchmark\": \"perf_ingest\", \"gates\": %zu, \"faults\": %zu, "
                  "\"parse_mb_s\": %.1f, \"cold_s\": %.3f, \"warm_s\": %.4f, "
                  "\"cache_speedup\": %.1f, \"hit\": %s, \"identical\": %s",
                  desc.gates.size(), workload.faults.size(), mbPerSecond, coldSeconds,
                  warmSeconds, speedup, warm.hit ? "true" : "false",
                  identical ? "true" : "false");
    const std::string doc = bench::benchJsonLine("perf_ingest", jsonLine, kWorkers);
    std::fputs(doc.c_str(), stdout);
    if (!writeTextFile("BENCH_perf_ingest.json", doc)) {
        std::fprintf(stderr, "warning: cannot write BENCH_perf_ingest.json\n");
    }

    if (!cold.hit && !warm.hit) {
        std::fprintf(stderr, "FAIL: second pass missed the store\n");
        return 1;
    }
    if (!identical) {
        std::fprintf(stderr, "FAIL: store replay is not byte-identical to the cold run\n");
        return 1;
    }
    if (speedup < 2.0) {
        std::fprintf(stderr, "FAIL: cache speedup %.2f below the 2x gate\n", speedup);
        return 1;
    }
    return 0;
}
