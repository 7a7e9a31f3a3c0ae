// Campaign benchmark: runs whole fault-injection campaigns of one seeded
// workload through campaign::CampaignRunner for a fixed wall-clock budget,
// checks every verdict against a reference campaign, and prints one JSON
// result line.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --pinned <dir> [--out <dir>]
//
// --trace 0 reports the end-to-end metrics (campaign_ref_s, setup_s,
// verdicts_per_ref_s, peak_rss_mb) of untraced campaigns: CPU time scaled to
// a reference host speed (see endToEnd). It prints the wall-clock
// campaign_s and verdicts_per_s beside them. --trace 1 alternates
// untraced and traced campaigns and reports the per-layer metrics; the traced
// campaigns record spans (see spans.hpp) that are written to
// <out>/trace-<workload>-seed<n>.json with a per-layer self-time table.
//
// Correctness: the first campaign runs in the plain reference configuration
// (scratch, event kernel, no collapse, no journal). Every measured campaign
// must reproduce its verdicts fault for fault. At the pinned seed the
// reference verdict text must also hash to <pinned>/<workload>.ans.sha.
// Deterministic per-layer counts must repeat across campaigns, and in the
// traced run also at one worker.

#include "workloads.hpp"

#include "pll_bench_common.hpp"

#include "core/journal.hpp"
#include "io/sha256.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace gfi;
using namespace gfi::perfbench;

namespace {

constexpr std::uint64_t kPinnedSeed = 1;
constexpr std::size_t kLanesPerWord = 63; ///< fault lanes per word simulation
constexpr double kHardCapSeconds = 150.0; ///< stop measuring past this process age
constexpr double kBlockSeconds = 5.0;     ///< campaign wall time pooled per block
constexpr unsigned kWorkers = 2;          ///< campaign worker threads (closed loop)
constexpr double kProbeEverySeconds = 0.5; ///< campaign wall time between host speed probes
/// The reference host speed the end-to-end times are scaled to: about what
/// hostSpeedProbe() reads on a 4-vCPU Xeon (Sapphire Rapids) VM.
constexpr double kReferenceProbeSeconds = 0.045;

using Clock = std::chrono::steady_clock;

/// CPU seconds the calling thread takes for a fixed loop that leans on what
/// the engine leans on: a dependent integer chain (core clock), lookups in a
/// 256 KiB table (the core's private caches), data-dependent branches and a
/// floating-point recurrence. Its time follows the host's speed, which on a
/// shared virtual machine drifts by tens of percent over minutes as other
/// tenants load the clock and the physical core, and never the engine's code.
double probeLoopSeconds()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(std::size_t{1} << 16);
        std::uint64_t x = 88172645463325252ULL;
        for (std::uint32_t& v : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<std::uint32_t>(x);
        }
        return t;
    }();
    [[maybe_unused]] static volatile std::uint64_t sink = 0; // keeps the loop
    const auto now = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    };
    const double t0 = now();
    std::uint64_t x = 12345, a = 0, b = 0, c = 0;
    double f = 0.0;
    for (int k = 0; k < 4'000'000; ++k) {
        x = x * 6364136223846793005ULL + (x >> 29);
        const std::uint32_t j = table[(x >> 20) & 0xFFFF];
        a += table[j & 0xFFFF];
        if (((x ^ j) & 4) != 0) {
            b += j;
        } else {
            c ^= a;
        }
        f = f * 0.999 + static_cast<double>(j & 15);
    }
    sink = x + a + b + c + static_cast<std::uint64_t>(f);
    return now() - t0;
}

/// The host's speed where a campaign runs: the mean probeLoopSeconds() of
/// kWorkers threads running it at once, as the campaign's workers do.
double hostSpeedProbe()
{
    std::vector<double> seconds(kWorkers);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kWorkers; ++i) {
        threads.emplace_back([&seconds, i] { seconds[i] = probeLoopSeconds(); });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    double sum = 0.0;
    for (const double s : seconds) {
        sum += s;
    }
    return sum / kWorkers;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string pinned;
    std::string out = ".bench_build/out";
};

Options parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + key);
        }
        const std::string value = argv[++i];
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::stoull(value);
        } else if (key == "--seconds") {
            o.seconds = std::stod(value);
        } else if (key == "--trace") {
            o.trace = value == "1";
        } else if (key == "--pinned") {
            o.pinned = value;
        } else if (key == "--out") {
            o.out = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (o.workload.empty() || o.pinned.empty()) {
        throw std::invalid_argument("--workload and --pinned are required");
    }
    return o;
}

double median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (@p p in [0, 100]).
double percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

double peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Faults whose verdict differs from the reference's (a list of a different
/// length is wrong as a whole).
std::size_t wrongVerdicts(const campaign::CampaignReport& reference,
                          const campaign::CampaignReport& got)
{
    if (got.runs.size() != reference.runs.size()) {
        return std::max(got.runs.size(), reference.runs.size());
    }
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
        const campaign::RunResult& a = reference.runs[i];
        const campaign::RunResult& b = got.runs[i];
        if (b.outcome != a.outcome || fault::describe(b.fault) != fault::describe(a.fault)) {
            ++wrong;
        }
    }
    return wrong;
}

/// The deterministic counts of one campaign: these must repeat exactly.
std::map<std::string, double> countsOf(const CampaignOutcome& o, SimTime duration)
{
    std::map<std::string, double> c;
    double resimulated = 0.0;
    double forked = 0.0;
    for (const campaign::RunResult& run : o.reports.front().runs) {
        const auto& d = run.diagnostics;
        const char* source = d.fromJournal              ? "core.runs_restored"
                             : !d.collapsedFrom.empty() ? "core.runs_expanded"
                             : d.batchLane > 0          ? "batch.batched"
                                                        : "core.runs_simulated";
        c[source] += 1;
        if (d.checkpointTime > 0) {
            resimulated += static_cast<double>(d.resimulatedTime) / static_cast<double>(duration);
            forked += 1;
        }
    }
    const KernelCounts& k = o.kernel;
    c["snapshot.resim_fraction"] = forked > 0 ? resimulated / forked : 0.0;
    c["trace.golden_samples"] = static_cast<double>(o.goldenSamples);
    c["snapshot.checkpoints"] = static_cast<double>(o.checkpoints);
    c["analog.accepted_steps"] = static_cast<double>(k.accepted);
    c["analog.rejected_steps"] = static_cast<double>(k.rejected);
    c["analog.linear_solves"] = static_cast<double>(k.linearSolves);
    c["analog.newton_iters"] = static_cast<double>(k.newton);
    c["analog.crossings"] = static_cast<double>(k.crossings);
    c["ams.atod_crossings"] = static_cast<double>(k.atod);
    c["ams.dtoa_events"] = static_cast<double>(k.dtoa);
    c["digital.waves"] = static_cast<double>(k.waves);
    c["digital.events"] = static_cast<double>(k.events);
    c["digital.queue_high_water"] = static_cast<double>(k.queueHighWater);
    c["kernel.simulated_us"] = static_cast<double>(k.simulated) / static_cast<double>(kMicrosecond);
    return c;
}

/// Fault-phase busy time of the workers: contained runs plus one word
/// simulation per batch group (every lane of a group carries its wall time).
double busySeconds(const campaign::CampaignReport& r)
{
    double busy = 0.0;
    for (const campaign::RunResult& run : r.runs) {
        const auto& d = run.diagnostics;
        if (d.fromJournal || !d.collapsedFrom.empty() || d.batchLane > 1) {
            continue;
        }
        busy += d.wallSeconds;
    }
    return busy;
}

/// What the metrics keep of one measured campaign once its reports are checked.
struct Sample {
    double totalSeconds = 0.0;
    double setupSeconds = 0.0;
    double totalCpuSeconds = 0.0;
    double setupCpuSeconds = 0.0;
    double probeSeconds = 0.0; ///< the latest hostSpeedProbe() before the campaign
    double busySeconds = 0.0;
    std::size_t verdicts = 0;
    std::map<std::string, double> counts;
    LayerProbe probe;

    [[nodiscard]] double faultSeconds() const { return std::max(totalSeconds - setupSeconds, 1e-9); }
    [[nodiscard]] double faultCpuSeconds() const
    {
        return std::max(totalCpuSeconds - setupCpuSeconds, 1e-9);
    }
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

std::string readFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class Bench {
public:
    Bench(Options opts, std::unique_ptr<Workload> workload)
        : opts_(std::move(opts)), workload_(std::move(workload)),
          dir_(opts_.out + "/" + opts_.workload + "-" + std::to_string(::getpid()))
    {
    }
    Bench(const Bench&) = delete;
    Bench& operator=(const Bench&) = delete;

    /// Campaign scratch files never outlive the run, even one cut short.
    ~Bench()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    int run();

private:
    CampaignSetup setup(bool reference, SpanLog* spans = nullptr, unsigned workers = 0)
    {
        CampaignSetup s;
        s.workers = workers != 0 ? workers : kWorkers;
        s.reference = reference;
        s.spans = spans;
        s.probeLayers = spans != nullptr && !probed_;
        probed_ = probed_ || s.probeLayers;
        s.dir = dir_ + "/c" + std::to_string(campaigns_++);
        std::filesystem::create_directories(s.dir);
        return s;
    }

    /// Runs the reference campaign in a child process, so its memory stays
    /// out of this process's peak, and reads its verdicts back from the
    /// journal it wrote.
    campaign::CampaignReport referenceCampaign()
    {
        const CampaignSetup s = setup(true);
        std::fflush(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid == 0) {
            int code = 0;
            try {
                workload_->runCampaign(s);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: reference campaign: %s\n", e.what());
                code = 1;
            }
            std::fflush(nullptr);
            ::_exit(code);
        }
        int status = 0;
        if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            throw std::runtime_error("the reference campaign failed");
        }
        const auto loaded = campaign::CampaignJournal::loadWithStats(journalPath(s.dir));
        campaign::CampaignReport report =
            campaign::reportFromEntries(workload_->faults(), loaded.entries);
        std::filesystem::remove_all(s.dir);
        return report;
    }

    /// Runs one measured campaign and checks it against the reference.
    Sample measure(const CampaignSetup& s)
    {
        const CampaignOutcome o = workload_->runCampaign(s);
        std::filesystem::remove_all(s.dir);
        for (const campaign::CampaignReport& r : o.reports) {
            attempted_ += r.runs.size();
            failed_ += wrongVerdicts(reference_, r);
            fail(workload_->checkFindings(r));
        }
        Sample sample{o.totalSeconds,    o.setupSeconds,
                      o.totalCpuSeconds, o.setupCpuSeconds,
                      0.0,               busySeconds(o.reports.front()), o.verdicts(),
                      countsOf(o, workload_->duration()), o.probe};
        std::fprintf(stderr,
                     "perfbench: campaign %d%s: %.6f s (set-up %.6f s), CPU %.6f s (set-up %.6f s)\n",
                     campaigns_ - 1, s.spans != nullptr ? " traced" : "", o.totalSeconds,
                     o.setupSeconds, o.totalCpuSeconds, o.setupCpuSeconds);
        if (!counts_) {
            counts_ = sample.counts;
        } else if (sample.counts != *counts_) {
            fail("per-layer counts differ between campaigns of one seed (workers " +
                 std::to_string(s.workers) + ")");
        }
        return sample;
    }

    void fail(const std::string& problem)
    {
        if (!problem.empty()) {
            std::fprintf(stderr, "perfbench: FAIL: %s\n", problem.c_str());
            problems_.push_back(problem);
        }
    }

    void checkPinned(const std::string& verdicts)
    {
        const std::string digest = io::sha256Hex(verdicts);
        const std::string path = opts_.pinned + "/" + opts_.workload + ".ans.sha";
        const std::string pinned = readFile(path).substr(0, 64);
        std::fprintf(stderr, "perfbench: reference verdict digest %s (pinned %s)\n",
                     digest.c_str(), pinned.empty() ? "missing" : pinned.c_str());
        if (digest != pinned) {
            fail("reference verdicts differ from " + path);
        }
    }

    std::string metaJson() const
    {
        return "{\"meta\": " + bench::benchMetaJson("perfbench/" + opts_.workload, kWorkers) +
               ", \"seed\": " + std::to_string(opts_.seed) +
               ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
               ", \"faults\": " + std::to_string(workload_->faults().size()) +
               ", \"duration_s\": " + number(toSeconds(workload_->duration())) + "}";
    }

    bool timeLeft(Clock::time_point loopStart) const
    {
        const auto now = Clock::now();
        return std::chrono::duration<double>(now - loopStart).count() < opts_.seconds &&
               std::chrono::duration<double>(now - start_).count() < kHardCapSeconds;
    }

    Metrics endToEnd(const std::vector<Sample>& runs, Metrics& printedOnly) const;
    Metrics perLayer(const std::vector<Sample>& untraced, const std::vector<Sample>& traced,
                     const std::vector<std::unique_ptr<SpanLog>>& logs) const;

    Options opts_;
    std::unique_ptr<Workload> workload_;
    std::string dir_;
    Clock::time_point start_ = Clock::now();
    campaign::CampaignReport reference_;
    std::optional<std::map<std::string, double>> counts_;
    std::vector<std::string> problems_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    int campaigns_ = 0;
    bool probed_ = false;
};

Metrics Bench::endToEnd(const std::vector<Sample>& runs, Metrics& printedOnly) const
{
    // Consecutive campaigns are pooled into blocks of at least kBlockSeconds
    // and each metric is the median over blocks of the block's mean. Short
    // campaigns swing between fast and slow phases of a shared host; a block
    // mean averages those phases, the median over blocks drops hiccups.
    //
    // The bounded times are reference seconds: the campaign's process CPU
    // seconds scaled by kReferenceProbeSeconds / (the block's median
    // hostSpeedProbe()). The wall clock also counts the time other tenants
    // hold the cores, and raw CPU time follows the host's drifting speed; both
    // are printed beside them.
    struct Block {
        double total = 0.0, setup = 0.0, fault = 0.0;
        double totalCpu = 0.0, setupCpu = 0.0, faultCpu = 0.0;
        std::size_t campaigns = 0, verdicts = 0;
        std::vector<double> probes;

        void add(const Block& o)
        {
            total += o.total;
            setup += o.setup;
            fault += o.fault;
            totalCpu += o.totalCpu;
            setupCpu += o.setupCpu;
            faultCpu += o.faultCpu;
            campaigns += o.campaigns;
            verdicts += o.verdicts;
            probes.insert(probes.end(), o.probes.begin(), o.probes.end());
        }
    };
    std::vector<Block> blocks(1);
    for (const Sample& o : runs) {
        if (blocks.back().total >= kBlockSeconds) {
            blocks.emplace_back();
        }
        blocks.back().add({o.totalSeconds, o.setupSeconds, o.faultSeconds(), o.totalCpuSeconds,
                           o.setupCpuSeconds, o.faultCpuSeconds(), 1, o.verdicts,
                           {o.probeSeconds}});
    }
    if (blocks.size() > 1 && blocks.back().total < kBlockSeconds) {
        const Block tail = blocks.back(); // fold a short tail into its neighbour
        blocks.pop_back();
        blocks.back().add(tail);
    }
    std::vector<double> total, setupS, rate, totalCpu, setupCpu, totalRef, setupRef, rateRef,
        speed;
    for (const Block& b : blocks) {
        const auto n = static_cast<double>(b.campaigns);
        const auto verdicts = static_cast<double>(b.verdicts);
        const double scale = kReferenceProbeSeconds / median(b.probes);
        total.push_back(b.total / n);
        setupS.push_back(b.setup / n);
        rate.push_back(verdicts / b.fault);
        totalCpu.push_back(b.totalCpu / n);
        setupCpu.push_back(b.setupCpu / n);
        totalRef.push_back(scale * b.totalCpu / n);
        setupRef.push_back(scale * b.setupCpu / n);
        rateRef.push_back(verdicts / (scale * b.faultCpu));
        speed.push_back(scale);
    }
    std::fprintf(stderr, "perfbench: %zu campaigns in %zu blocks\n", runs.size(), blocks.size());
    printedOnly = {
        {"campaign_s", {median(total), "s"}},
        {"setup_wall_s", {median(setupS), "s"}},
        {"verdicts_per_s", {median(rate), "1/s"}},
        {"campaign_cpu_s", {median(totalCpu), "s"}},
        {"setup_cpu_s", {median(setupCpu), "s"}},
        {"host_speed", {median(speed), "ratio"}},
    };
    return {
        {"campaign_ref_s", {median(totalRef), "s"}},
        {"setup_s", {median(setupRef), "s"}},
        {"verdicts_per_ref_s", {median(rateRef), "1/s"}},
        {"peak_rss_mb", {peakRssMb(), "MB"}},
    };
}

Metrics Bench::perLayer(
    const std::vector<Sample>& untraced, const std::vector<Sample>& traced,
    const std::vector<std::unique_ptr<SpanLog>>& logs) const
{
    const std::map<std::string, double>& counts = untraced.front().counts;
    const auto count = [&counts](const std::string& name) {
        const auto it = counts.find(name);
        return it != counts.end() ? it->second : 0.0;
    };
    const double faults = static_cast<double>(workload_->faults().size());

    // Stage times: one value per traced campaign, reported as the median.
    const auto stage = [&logs](const std::string& name) {
        std::vector<double> v;
        for (const auto& log : logs) {
            v.push_back(log->totalSeconds(name));
        }
        return median(v);
    };
    // Per-run times: pooled over every traced campaign.
    const auto pooled = [&logs](const std::string& name) {
        std::vector<double> v;
        for (const auto& log : logs) {
            const auto d = log->durationsMs(name);
            v.insert(v.end(), d.begin(), d.end());
        }
        return v;
    };
    // What run() spends past golden when every verdict comes from the journal.
    std::vector<double> journalRestore;
    for (const auto& log : logs) {
        journalRestore.push_back(log->totalSeconds("CampaignRunner::run") -
                                 log->totalSeconds("preflight") - log->totalSeconds("golden") -
                                 log->totalSeconds("collapse"));
    }

    std::vector<double> utilization;
    std::vector<double> untracedTotal;
    for (const Sample& o : untraced) {
        utilization.push_back(o.busySeconds / (kWorkers * o.faultSeconds()));
        untracedTotal.push_back(o.totalSeconds);
    }
    std::vector<double> tracedTotal;
    for (const Sample& o : traced) {
        tracedTotal.push_back(o.totalSeconds);
    }

    const double accepted = count("analog.accepted_steps");
    const double steps = accepted + count("analog.rejected_steps");
    const double simulatedUs = count("kernel.simulated_us");
    const std::optional<batch::BatchStats>& bs = traced.front().probe.batch;
    const double groups = bs ? static_cast<double>(bs->groups) : 0.0;
    const double batched = bs ? static_cast<double>(bs->batched) : 0.0;
    const double classes = static_cast<double>(traced.front().probe.collapseClasses);

    return {
        {"lint.preflight_s", {stage("preflight"), "s"}},
        {"core.golden_s", {stage("golden"), "s"}},
        {"core.campaign_wall_s", {median(untracedTotal), "s"}},
        {"core.build_ms_p50", {percentile(pooled("build"), 50), "ms"}},
        {"core.simulate_ms_p50", {percentile(pooled("simulate"), 50), "ms"}},
        {"core.simulate_ms_p95", {percentile(pooled("simulate"), 95), "ms"}},
        {"core.worker_utilization", {median(utilization), "ratio"}},
        {"core.journal_restore_s",
         {count("core.runs_restored") > 0 ? median(journalRestore) : 0.0, "s"}},
        {"core.runs_simulated", {count("core.runs_simulated"), "count"}},
        {"core.runs_restored", {count("core.runs_restored"), "count"}},
        {"core.runs_expanded", {count("core.runs_expanded"), "count"}},
        {"trace.classify_ms_p50", {percentile(pooled("classify"), 50), "ms"}},
        {"trace.golden_samples", {count("trace.golden_samples"), "count"}},
        {"analog.accepted_steps", {accepted, "count"}},
        {"analog.rejected_steps", {count("analog.rejected_steps"), "count"}},
        {"analog.reject_ratio",
         {steps > 0 ? count("analog.rejected_steps") / steps : 0.0, "ratio"}},
        {"analog.linear_solves", {count("analog.linear_solves"), "count"}},
        {"analog.newton_iters", {count("analog.newton_iters"), "count"}},
        {"analog.crossings", {count("analog.crossings"), "count"}},
        {"analog.steps_per_sim_us", {simulatedUs > 0 ? accepted / simulatedUs : 0.0, "1/us"}},
        {"ams.atod_crossings", {count("ams.atod_crossings"), "count"}},
        {"ams.dtoa_events", {count("ams.dtoa_events"), "count"}},
        {"snapshot.checkpoints", {count("snapshot.checkpoints"), "count"}},
        {"snapshot.restore_ms_p50", {percentile(pooled("restore"), 50), "ms"}},
        {"snapshot.resim_fraction", {count("snapshot.resim_fraction"), "ratio"}},
        {"batch.s", {stage("batch"), "s"}},
        {"batch.groups", {groups, "count"}},
        {"batch.batched", {batched, "count"}},
        {"batch.fallbacks", {bs ? static_cast<double>(bs->fallbacks.size()) : 0.0, "count"}},
        {"batch.lane_occupancy",
         {groups > 0 ? batched / (groups * static_cast<double>(kLanesPerWord)) : 0.0, "ratio"}},
        {"batch.crosscheck_failures",
         {bs ? static_cast<double>(bs->crossCheckFailures) : 0.0, "count"}},
        {"digital.waves", {count("digital.waves"), "count"}},
        {"digital.events", {count("digital.events"), "count"}},
        {"digital.waves_per_fault", {count("digital.waves") / faults, "count"}},
        {"digital.queue_high_water", {count("digital.queue_high_water"), "count"}},
        {"analyze.collapse_s", {stage("collapse"), "s"}},
        {"analyze.classes", {classes, "count"}},
        {"analyze.shrink", {classes > 0 ? faults / classes : 0.0, "ratio"}},
        {"io.parse_s", {stage("io::parseNetlist"), "s"}},
        {"io.workload_s", {stage("io::makeWorkload"), "s"}},
        {"io.store_record_s", {stage("GoldenStore::put"), "s"}},
        {"io.store_lookup_s", {stage("io::runCampaignCached"), "s"}},
        {"obs.trace_overhead", {median(tracedTotal) / median(untracedTotal) - 1.0, "ratio"}},
    };
}

int Bench::run()
{
    std::filesystem::create_directories(dir_);
    const std::string meta = metaJson();
    std::printf("perfbench: provenance %s\n", meta.c_str());

    // Reference campaign: the plain configuration every measured one must match.
    {
        const Clock::time_point t0 = Clock::now();
        reference_ = referenceCampaign();
        std::fprintf(stderr, "perfbench: %s seed %llu: %zu faults, reference in %.3f s\n",
                     opts_.workload.c_str(), static_cast<unsigned long long>(opts_.seed),
                     reference_.runs.size(),
                     std::chrono::duration<double>(Clock::now() - t0).count());
        if (opts_.seed == kPinnedSeed) {
            checkPinned(workload_->verdictText(reference_));
        }
        fail(workload_->checkFindings(reference_));
    }
    workload_->prepare(dir_);

    // Warm-up: one checked campaign and one host speed probe outside the
    // measurement.
    measure(setup(false));
    hostSpeedProbe();

    std::vector<Sample> untraced;
    std::vector<Sample> traced;
    std::vector<std::unique_ptr<SpanLog>> logs;
    double probe = 0.0;
    double sinceProbe = kProbeEverySeconds;
    const Clock::time_point loopStart = Clock::now();
    const std::size_t minEach = opts_.trace ? 2 : 3;
    while (untraced.size() < minEach || traced.size() < (opts_.trace ? minEach : 0) ||
           timeLeft(loopStart)) {
        if (opts_.trace && traced.size() < untraced.size()) {
            logs.push_back(std::make_unique<SpanLog>());
            traced.push_back(measure(setup(false, logs.back().get())));
        } else {
            if (!opts_.trace && sinceProbe >= kProbeEverySeconds) {
                probe = hostSpeedProbe();
                sinceProbe = 0.0;
                std::fprintf(stderr, "perfbench: host speed probe %.6f s\n", probe);
            }
            untraced.push_back(measure(setup(false)));
            untraced.back().probeSeconds = probe;
            sinceProbe += untraced.back().totalSeconds;
        }
    }
    if (opts_.trace) {
        // Worker-width invariance of the counts: one campaign at one worker.
        measure(setup(false, nullptr, 1));
    }

    Metrics printedOnly;
    const Metrics metrics =
        opts_.trace ? perLayer(untraced, traced, logs) : endToEnd(untraced, printedOnly);

    if (opts_.trace) {
        const SpanLog& log = *logs.back();
        const std::string path = opts_.out + "/trace-" + opts_.workload + "-seed" +
                                 std::to_string(opts_.seed) + ".json";
        if (!bench::writeTextFile(path, log.json(meta))) {
            fail("cannot write " + path);
        }
        std::fprintf(stderr, "perfbench: layer self time of one traced campaign (%s):\n",
                     path.c_str());
        const std::map<std::string, double> self = log.selfSeconds();
        double all = 0.0;
        for (const auto& [layer, s] : self) {
            all += s;
        }
        for (const auto& [layer, s] : self) {
            std::fprintf(stderr, "  %-10s %10.6f s  %5.1f %%\n", layer.c_str(), s,
                         all > 0 ? 100.0 * s / all : 0.0);
        }
    }

    const double failedRatio =
        attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
    if (failed_ > 0) {
        fail(std::to_string(failed_) + " of " + std::to_string(attempted_) +
             " verdicts differ from the reference");
    }
    std::printf("perfbench: %s seed %llu: %zu untraced + %zu traced campaigns\n",
                opts_.workload.c_str(), static_cast<unsigned long long>(opts_.seed),
                untraced.size(), traced.size());
    std::printf("  %-28s %s %s\n", "failed_ratio", number(failedRatio).c_str(), "ratio");
    for (const auto& [name, vu] : printedOnly) {
        std::printf("  %-28s %s %s\n", name.c_str(), number(vu.first).c_str(), vu.second.c_str());
    }
    std::string json = "{";
    bool firstMetric = true;
    for (const auto& [name, vu] : metrics) {
        std::printf("  %-28s %s %s\n", name.c_str(), number(vu.first).c_str(), vu.second.c_str());
        json += std::string(firstMetric ? "" : ", ") + "\"" + name + "\": {\"value\": " +
                number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
        firstMetric = false;
    }
    json += "}";
    const bool correct = problems_.empty();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                correct ? "true" : "false", attempted_, failed_, json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        Options opts = parseArgs(argc, argv);
        std::unique_ptr<Workload> workload = makeWorkload(opts.workload, opts.seed);
        if (!workload) {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
            return 2;
        }
        Bench bench(std::move(opts), std::move(workload));
        return bench.run();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
