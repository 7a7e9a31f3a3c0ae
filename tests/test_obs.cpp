// Observability subsystem: metrics registry semantics under concurrency,
// histogram edge conventions, Chrome-trace span collection, the trace and
// metrics files a sink flushes to its configured paths, and the campaign-level
// determinism contract — telemetry off leaves every output byte-identical,
// telemetry on produces counter totals that are invariant across worker
// widths and reproducible from a journal resume.

#include "campaign_harness.hpp"

#include "core/campaign.hpp"
#include "core/cost.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "duts/digital_dut.hpp"
#include "obs/bench_compare.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "pll/pll.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

namespace gfi {
namespace {

using test::slurp;

// ---------------------------------------------------------------------------
// Helpers


/// Structural JSON check: braces/brackets balance outside string literals and
/// the text is one complete value. Catches the classic emitter bugs (trailing
/// comma-free truncation, unescaped quotes) without a JSON parser dependency.
bool balancedJson(const std::string& text)
{
    int depth = 0;
    bool inString = false;
    bool sawValue = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (inString) {
            if (c == '\\') {
                ++i; // skip the escaped character
            } else if (c == '"') {
                inString = false;
            }
            continue;
        }
        if (c == '"') {
            inString = true;
        } else if (c == '{' || c == '[') {
            ++depth;
            sawValue = true;
        } else if (c == '}' || c == ']') {
            if (--depth < 0) {
                return false;
            }
        }
    }
    return depth == 0 && !inString && sawValue;
}

std::size_t countOccurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

/// Exhaustive bit-flip list over the digital DUT's stored state (the same
/// enumeration the examples use), sized so an 8-worker campaign keeps every
/// worker busy.
std::vector<fault::FaultSpec> digitalDutFaults()
{
    const duts::DigitalDutTestbench probe;
    const std::vector<SimTime> times{kMicrosecond + 7 * kNanosecond,
                                     3 * kMicrosecond + 3 * kNanosecond};
    std::vector<fault::FaultSpec> faults;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        for (int bit = 0; bit < hook.width; ++bit) {
            for (SimTime t : times) {
                faults.emplace_back(fault::BitFlipFault{name, bit, t});
            }
        }
    }
    return faults;
}

fault::TestbenchFactory dutFactory()
{
    return [] { return std::make_unique<duts::DigitalDutTestbench>(); };
}

void configureDutRunner(campaign::CampaignRunner& runner, unsigned workers)
{
    runner.setWorkers(workers);
    runner.setRecordTiming(false);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(ObsMetrics, CounterGaugeBasics)
{
    obs::MetricsRegistry m;
    obs::Counter& c = m.counter("gfi_test_total", "help text");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(m.counterValue("gfi_test_total"), 5u);
    EXPECT_EQ(m.counterValue("absent"), 0u);
    EXPECT_TRUE(m.has("gfi_test_total"));
    EXPECT_FALSE(m.has("absent"));
    EXPECT_EQ(&m.counter("gfi_test_total"), &c) << "registration must be idempotent";

    obs::Gauge& g = m.gauge("gfi_test_level");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.foldMax(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.5) << "foldMax must keep the larger value";
    g.foldMax(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);

    obs::Gauge& mn = m.gauge("gfi_test_min");
    mn.foldMinNonzero(0.0);
    EXPECT_DOUBLE_EQ(mn.value(), 0.0) << "zero must not count as a minimum";
    mn.foldMinNonzero(3.0);
    mn.foldMinNonzero(5.0);
    EXPECT_DOUBLE_EQ(mn.value(), 3.0);
    mn.foldMinNonzero(1.0);
    EXPECT_DOUBLE_EQ(mn.value(), 1.0);

    // One name, one kind: re-registering as another kind is a logic error.
    EXPECT_THROW(m.gauge("gfi_test_total"), std::logic_error);
    EXPECT_THROW(m.histogram("gfi_test_level", {1.0}), std::logic_error);
}

TEST(ObsMetrics, RegistryConcurrency)
{
    obs::MetricsRegistry m;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kIncrements = 20000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&m, t] {
            // Shared counter, per-thread labeled counter, shared histogram and
            // max-folded gauge — all hammered concurrently, registration
            // included (every thread calls the lookup on each iteration).
            const std::string mine =
                "gfi_thread_total{tid=\"" + std::to_string(t) + "\"}";
            for (std::uint64_t i = 0; i < kIncrements; ++i) {
                m.counter("gfi_shared_total").inc();
                m.counter(mine).inc();
                m.histogram("gfi_shared_hist", {10.0, 100.0}).observe(1.0);
                m.gauge("gfi_shared_max").foldMax(static_cast<double>(t));
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }

    EXPECT_EQ(m.counterValue("gfi_shared_total"), kThreads * kIncrements);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(m.counterValue("gfi_thread_total{tid=\"" + std::to_string(t) + "\"}"),
                  kIncrements);
    }
    const obs::Histogram& h = m.histogram("gfi_shared_hist", {10.0, 100.0});
    EXPECT_EQ(h.count(), kThreads * kIncrements);
    EXPECT_EQ(h.bucketCount(0), kThreads * kIncrements);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kIncrements));
    EXPECT_DOUBLE_EQ(m.gauge("gfi_shared_max").value(), kThreads - 1.0);
}

TEST(ObsMetrics, HistogramBucketEdges)
{
    obs::Histogram h({10.0, 100.0, 1000.0});

    h.observe(10.0);     // exactly on a bound: counts in that bucket (le)
    h.observe(10.0001);  // just past it: next bucket
    h.observe(100.0);    // on the second bound
    h.observe(1000.0);   // on the last bound
    h.observe(1000.5);   // past every bound: overflow/+Inf bucket
    h.observe(-3.0);     // below everything: first bucket

    EXPECT_EQ(h.bucketCount(0), 2u) << "<= 10";
    EXPECT_EQ(h.bucketCount(1), 2u) << "(10, 100]";
    EXPECT_EQ(h.bucketCount(2), 1u) << "(100, 1000]";
    EXPECT_EQ(h.bucketCount(3), 1u) << "overflow";
    EXPECT_EQ(h.count(), 6u);
    EXPECT_NEAR(h.sum(), 10.0 + 10.0001 + 100.0 + 1000.0 + 1000.5 - 3.0, 1e-9);

    EXPECT_THROW(obs::Histogram({5.0, 1.0}), std::invalid_argument);
}

TEST(ObsMetrics, PrometheusTextExposition)
{
    obs::MetricsRegistry m;
    m.counter("gfi_runs_total{outcome=\"silent\"}", "Completed runs").inc(3);
    m.counter("gfi_runs_total{outcome=\"failure\"}", "Completed runs").inc(1);
    m.gauge("gfi_workers", "Worker threads").set(4);
    obs::Histogram& h = m.histogram("gfi_waves", {10.0, 100.0}, "Waves per run");
    h.observe(5.0);
    h.observe(50.0);
    h.observe(500.0);

    const std::string text = m.prometheusText();

    // TYPE/HELP once per base name, even with two labeled series.
    EXPECT_EQ(countOccurrences(text, "# TYPE gfi_runs_total counter"), 1u) << text;
    EXPECT_EQ(countOccurrences(text, "# HELP gfi_runs_total Completed runs"), 1u);
    EXPECT_NE(text.find("gfi_runs_total{outcome=\"silent\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("gfi_runs_total{outcome=\"failure\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE gfi_workers gauge"), std::string::npos);
    EXPECT_NE(text.find("gfi_workers 4\n"), std::string::npos);

    // Histogram buckets are cumulative and close with +Inf/sum/count.
    EXPECT_NE(text.find("# TYPE gfi_waves histogram"), std::string::npos);
    EXPECT_NE(text.find("gfi_waves_bucket{le=\"10\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("gfi_waves_bucket{le=\"100\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("gfi_waves_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("gfi_waves_sum 555\n"), std::string::npos);
    EXPECT_NE(text.find("gfi_waves_count 3\n"), std::string::npos);

    // Exposition is deterministic: same registry, same bytes.
    EXPECT_EQ(text, m.prometheusText());
    EXPECT_TRUE(balancedJson(m.json())) << m.json();
    // Labeled names embed quotes; the JSON exposition must escape them when
    // the name becomes an object key.
    EXPECT_NE(m.json().find("\"gfi_runs_total{outcome=\\\"silent\\\"}\": 3"),
              std::string::npos)
        << m.json();
}

// ---------------------------------------------------------------------------
// Trace writer / spans

TEST(ObsTrace, SpanNestingAndJsonShape)
{
    obs::Telemetry telemetry;
    telemetry.enableTracing();
    ASSERT_NE(telemetry.trace(), nullptr);

    telemetry.trace()->nameCurrentTrack("main");
    telemetry.trace()->nameCurrentTrack("main"); // deduplicated
    {
        obs::Span outer(&telemetry, "outer", "test");
        {
            obs::Span inner(&telemetry, "inner", "test");
            inner.setArgs("{\"k\": 1}");
        }
        telemetry.trace()->instantEvent("marker", "test");
    }
    // 1 metadata + 2 spans + 1 instant; the second nameCurrentTrack is a no-op.
    EXPECT_EQ(telemetry.trace()->eventCount(), 4u);

    const std::string json = telemetry.trace()->json();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"thread_name\""), 1u) << json;
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"X\""), 2u) << json;
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"i\""), 1u) << json;
    EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"k\": 1"), std::string::npos) << "span args must survive";
    EXPECT_NE(json.find("\"dur\":"), std::string::npos) << "X events carry a duration";
}

/// The complete ("X") events named @p name in a trace's JSON.
std::vector<util::JsonValue> spansNamed(const std::string& traceJson, const std::string& name)
{
    std::vector<util::JsonValue> out;
    const util::JsonValue doc = util::parseJson(traceJson);
    for (const util::JsonValue& e : doc.find("traceEvents")->asArray()) {
        if (e.find("ph")->asString() == "X" && e.find("name")->asString() == name) {
            out.push_back(e);
        }
    }
    return out;
}

// Span times are microseconds in fixed point with nanosecond resolution: a
// long span neither loses digits to an exponent nor overlaps its successor.
TEST(ObsTrace, SpanTimesKeepNanosecondResolution)
{
    obs::TraceWriter writer;
    writer.completeEvent("long", "test", 11888.123, 2.5);
    // "first" ends at 11888.1232 us and "second" starts 0.2 ns later. Start
    // and duration rounded apart would end "first" at 100.001 + 11788.123 =
    // 11888.124, past "second"'s 11888.123.
    writer.completeEvent("first", "test", 100.0006, 11788.1226);
    writer.completeEvent("second", "test", 11888.1234, 1.0);
    const std::string json = writer.json();
    EXPECT_NE(json.find("\"ts\": 11888.123, \"dur\": 2.500"), std::string::npos) << json;
    EXPECT_EQ(json.find("e+"), std::string::npos) << json;

    const std::vector<util::JsonValue> span = spansNamed(json, "long");
    ASSERT_EQ(span.size(), 1u);
    EXPECT_EQ(span[0].find("ts")->asNumber(), 11888.123);
    EXPECT_EQ(span[0].find("dur")->asNumber(), 2.5);
    const util::JsonValue first = spansNamed(json, "first").at(0);
    const util::JsonValue second = spansNamed(json, "second").at(0);
    EXPECT_LE(std::llround(first.find("ts")->asNumber() * 1000) +
                  std::llround(first.find("dur")->asNumber() * 1000),
              std::llround(second.find("ts")->asNumber() * 1000));
}

TEST(ObsTrace, DisabledSpansAreNoops)
{
    // Null telemetry: must not crash, must not allocate a writer.
    {
        obs::Span span(nullptr, "ghost", "test");
        span.setArgs("{}");
    }
    // Telemetry without tracing enabled: spans are dropped.
    obs::Telemetry telemetry;
    EXPECT_EQ(telemetry.trace(), nullptr);
    {
        obs::Span span(&telemetry, "dropped", "test");
    }
    EXPECT_EQ(telemetry.trace(), nullptr);
}

TEST(ObsTelemetry, FlushWritesConfiguredPaths)
{
    const std::string tracePath = ::testing::TempDir() + "gfi_obs_trace.json";
    const std::string metricsPath = ::testing::TempDir() + "gfi_obs_metrics.json";
    std::remove(tracePath.c_str());
    std::remove(metricsPath.c_str());

    // A default sink names no file to flush to.
    obs::Telemetry unconfigured;
    EXPECT_TRUE(unconfigured.tracePath().empty());
    EXPECT_TRUE(unconfigured.metricsPath().empty());

    obs::Telemetry telemetry;
    telemetry.setTracePath(tracePath);
    telemetry.setMetricsPath(metricsPath);
    EXPECT_EQ(telemetry.tracePath(), tracePath);
    EXPECT_EQ(telemetry.metricsPath(), metricsPath);
    ASSERT_NE(telemetry.trace(), nullptr) << "a trace path must enable span collection";

    telemetry.metrics().counter("gfi_flush_total").inc(2);
    {
        obs::Span span(&telemetry, "work", "test");
    }
    telemetry.flush();

    const std::string trace = slurp(tracePath);
    const std::string metrics = slurp(metricsPath);
    EXPECT_TRUE(balancedJson(trace)) << trace;
    EXPECT_NE(trace.find("\"name\": \"work\""), std::string::npos);
    EXPECT_TRUE(balancedJson(metrics)) << ".json path selects JSON exposition";
    EXPECT_NE(metrics.find("\"gfi_flush_total\": 2"), std::string::npos) << metrics;

    std::remove(tracePath.c_str());
    std::remove(metricsPath.c_str());
}

// ---------------------------------------------------------------------------
// Campaign determinism contract

TEST(ObsCampaign, TelemetryOffIsByteIdentical)
{
    const auto faults = digitalDutFaults();
    const std::string plainPath = ::testing::TempDir() + "gfi_obs_plain.jsonl";
    const std::string obsPath = ::testing::TempDir() + "gfi_obs_observed.jsonl";
    std::remove(plainPath.c_str());
    std::remove(obsPath.c_str());

    campaign::CampaignRunner plain(dutFactory());
    configureDutRunner(plain, 2);
    plain.setJournalPath(plainPath);
    const campaign::CampaignReport plainReport = plain.run(faults);

    obs::Telemetry telemetry;
    telemetry.enableTracing();
    campaign::CampaignRunner observed(dutFactory());
    configureDutRunner(observed, 2);
    observed.setJournalPath(obsPath);
    observed.setTelemetry(telemetry);
    const campaign::CampaignReport obsReport = observed.run(faults);

    // Classification, summary and report are identical with and without the
    // sink; the journal gains exactly one trailing "probes" object per line.
    EXPECT_EQ(plainReport.summaryTable(), obsReport.summaryTable());
    EXPECT_EQ(campaign::reportToJson(plainReport), campaign::reportToJson(obsReport));

    const std::string plainJournal = slurp(plainPath);
    ASSERT_FALSE(plainJournal.empty());
    EXPECT_EQ(plainJournal.find("\"probes\""), std::string::npos)
        << "no sink -> historical journal format";

    std::istringstream plainLines(plainJournal);
    std::istringstream obsLines(slurp(obsPath));
    std::string plainLine;
    std::string obsLine;
    while (std::getline(plainLines, plainLine)) {
        ASSERT_TRUE(static_cast<bool>(std::getline(obsLines, obsLine)));
        const std::size_t probesAt = obsLine.find(", \"probes\": {");
        ASSERT_NE(probesAt, std::string::npos) << obsLine;
        // Strip the probes object (last key before the closing brace).
        const std::string stripped =
            obsLine.substr(0, probesAt) + obsLine.substr(obsLine.size() - 1);
        EXPECT_EQ(stripped, plainLine);
        EXPECT_TRUE(balancedJson(obsLine)) << obsLine;
    }
    EXPECT_FALSE(static_cast<bool>(std::getline(obsLines, obsLine)));

    EXPECT_GT(telemetry.trace()->eventCount(), faults.size())
        << "one span per run plus the campaign phases";
    EXPECT_EQ(telemetry.metrics().counterValue("gfi_run_attempts_total"), faults.size());

    std::remove(plainPath.c_str());
    std::remove(obsPath.c_str());
}

// Counter totals and every run's own probe reading — counters and levels
// (queue high-water, final queue depth) alike — are worker-width invariant,
// although which runs restore a pooled testbench and which build a fresh one
// depends on the width.
TEST(ObsCampaign, CounterTotalsInvariantAcrossWorkerWidths)
{
    const auto faults = digitalDutFaults();
    ASSERT_GE(faults.size(), 8u);

    std::map<std::string, std::uint64_t> baseline;
    std::vector<obs::ProbeSnapshot> baselineProbes;
    for (const unsigned workers : {1u, 4u, 8u}) {
        obs::Telemetry telemetry;
        campaign::CampaignRunner runner(dutFactory());
        configureDutRunner(runner, workers);
        runner.setTelemetry(telemetry);
        const campaign::CampaignReport report = runner.run(faults);
        std::vector<obs::ProbeSnapshot> probes;
        for (const campaign::RunResult& r : report.runs) {
            ASSERT_TRUE(r.diagnostics.probes.valid);
            probes.push_back(r.diagnostics.probes);
        }

        const auto counts = telemetry.metrics().counterValues();
        std::uint64_t runsTotal = 0;
        for (const auto& [name, value] : counts) {
            if (name.rfind("gfi_runs_total{", 0) == 0) {
                runsTotal += value;
            }
        }
        EXPECT_EQ(runsTotal, faults.size());
        EXPECT_GT(counts.at("gfi_digital_events_total"), 0u);
        EXPECT_GT(counts.at("gfi_digital_delta_cycles_total"), 0u);

        if (workers == 1u) {
            baseline = counts;
            baselineProbes = probes;
            continue;
        }
        EXPECT_EQ(counts, baseline) << "counter totals must not depend on worker width ("
                                    << workers << " workers)";
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const obs::ProbeSnapshot& got = probes[i];
            const obs::ProbeSnapshot& want = baselineProbes[i];
            SCOPED_TRACE("fault " + std::to_string(i) + " at " + std::to_string(workers) +
                         " workers");
            EXPECT_EQ(got.digitalEvents, want.digitalEvents);
            EXPECT_EQ(got.deltaCycles, want.deltaCycles);
            EXPECT_EQ(got.queueHighWater, want.queueHighWater);
            EXPECT_EQ(got.pendingEvents, want.pendingEvents);
            EXPECT_EQ(got.analogAcceptedSteps, want.analogAcceptedSteps);
            EXPECT_EQ(got.analogRejectedSteps, want.analogRejectedSteps);
            EXPECT_EQ(got.newtonIterations, want.newtonIterations);
            EXPECT_EQ(got.companionRebuilds, want.companionRebuilds);
            EXPECT_EQ(got.minAcceptedDt, want.minAcceptedDt);
            EXPECT_EQ(got.lastAcceptedDt, want.lastAcceptedDt);
            EXPECT_EQ(got.atodCrossings, want.atodCrossings);
            EXPECT_EQ(got.dtoaEvents, want.dtoaEvents);
        }
    }
}

TEST(ObsCampaign, AnalogStepLimitCountersSumToAcceptedSteps)
{
    // Every accepted analog step of every run is billed to exactly one
    // limiting bound; on the PLL the VCO's maxStep hint sets most of them.
    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond;
    const std::vector<fault::FaultSpec> faults{
        fault::CurrentPulseFault{pll::names::kSabFilter, 10e-6,
                                 std::make_shared<fault::TrapezoidPulse>(5e-3, 100e-12,
                                                                         100e-12, 300e-12)},
        fault::BitFlipFault{"pll/divider", 1, 12 * kMicrosecond},
    };
    obs::Telemetry telemetry;
    campaign::CampaignRunner runner([cfg] { return std::make_unique<pll::PllTestbench>(cfg); });
    runner.setWorkers(2);
    runner.setTelemetry(telemetry);
    runner.run(faults);

    const auto counts = telemetry.metrics().counterValues();
    std::uint64_t limited = 0;
    for (const char* limit : {"lte", "dt_max", "hint", "breakpoint", "crossing"}) {
        limited += counts.at(std::string("gfi_analog_steps_limited_by_") + limit + "_total");
    }
    EXPECT_GT(counts.at("gfi_analog_steps_accepted_total"), 0u);
    EXPECT_EQ(limited, counts.at("gfi_analog_steps_accepted_total"));
    EXPECT_GT(counts.at("gfi_analog_steps_limited_by_hint_total"), limited / 2);
    EXPECT_EQ(counts.at("gfi_analog_steps_limited_by_dt_max_total"), 0u);
}

TEST(ObsCampaign, JournalResumeReproducesCounterTotals)
{
    const auto faults = digitalDutFaults();
    const std::string path = ::testing::TempDir() + "gfi_obs_resume.jsonl";
    std::remove(path.c_str());

    obs::Telemetry first;
    campaign::CampaignRunner runner(dutFactory());
    configureDutRunner(runner, 2);
    runner.setJournalPath(path);
    runner.setTelemetry(first);
    runner.run(faults);

    // A fresh runner restores every run from the journal; the embedded probe
    // deltas must rebuild the exact same counter totals without simulating.
    obs::Telemetry second;
    campaign::CampaignRunner resumed(dutFactory());
    configureDutRunner(resumed, 2);
    resumed.setJournalPath(path);
    resumed.setTelemetry(second);
    const campaign::CampaignReport report = resumed.run(faults);
    for (const campaign::RunResult& r : report.runs) {
        EXPECT_TRUE(r.diagnostics.fromJournal);
    }
    // The convergence counters measure simulation the first campaign
    // skipped; a campaign that simulated nothing skipped nothing.
    std::map<std::string, std::uint64_t> simulated = first.metrics().counterValues();
    const auto restored = second.metrics().counterValues();
    for (const char* skipped : {"gfi_runs_converged_total", "gfi_digital_waves_skipped_total"}) {
        EXPECT_GT(simulated[skipped], 0u) << skipped;
        EXPECT_EQ(restored.count(skipped), 0u) << skipped;
        simulated.erase(skipped);
    }
    EXPECT_EQ(restored, simulated);

    std::remove(path.c_str());
}

// A converged run leaves three traces with telemetry on: the two counters
// (one run, its billed suffix waves) and a "converged" instant event with
// the mark time inside its run span. Nothing reaches stderr.
TEST(ObsCampaign, ConvergedRunsAreCountedAndMarkedInTheirRunSpan)
{
    const auto faults = digitalDutFaults();
    obs::Telemetry telemetry;
    telemetry.enableTracing();
    campaign::CampaignRunner runner(dutFactory());
    configureDutRunner(runner, 2);
    runner.setTelemetry(telemetry);
    ::testing::internal::CaptureStderr();
    const campaign::CampaignReport report = runner.run(faults);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    std::uint64_t converged = 0;
    std::uint64_t skipped = 0;
    std::set<std::string> marks;
    for (const campaign::RunResult& r : report.runs) {
        if (r.diagnostics.convergedAt >= 0) {
            ++converged;
            skipped += r.diagnostics.wavesSkipped;
            marks.insert(formatTime(r.diagnostics.convergedAt));
        }
    }
    ASSERT_GT(converged, 0u);
    EXPECT_GT(skipped, 0u);
    EXPECT_EQ(telemetry.metrics().counterValue("gfi_runs_converged_total"), converged);
    EXPECT_EQ(telemetry.metrics().counterValue("gfi_digital_waves_skipped_total"), skipped);

    const util::JsonValue doc = util::parseJson(telemetry.trace()->json());
    std::vector<const util::JsonValue*> runSpans;
    std::vector<const util::JsonValue*> events;
    for (const util::JsonValue& e : doc.find("traceEvents")->asArray()) {
        const std::string name = e.find("name")->asString();
        if (e.find("ph")->asString() == "X" && name.rfind("run #", 0) == 0) {
            runSpans.push_back(&e);
        } else if (e.find("ph")->asString() == "i" && name == "converged") {
            events.push_back(&e);
        }
    }
    ASSERT_EQ(events.size(), converged);
    for (const util::JsonValue* e : events) {
        const util::JsonValue* args = e->find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(marks.count(args->find("sim_time")->asString()), 1u);
        const double ts = e->find("ts")->asNumber();
        const double tid = e->find("tid")->asNumber();
        EXPECT_TRUE(std::any_of(runSpans.begin(), runSpans.end(), [&](const util::JsonValue* s) {
            const double start = s->find("ts")->asNumber();
            return s->find("tid")->asNumber() == tid && start <= ts &&
                   ts <= start + s->find("dur")->asNumber();
        })) << "a converged event outside every run span";
    }
}

// The journal load and the restore pass show up as one "journal" span of a
// resumed campaign; with telemetry off the span leaves every byte alone.
TEST(ObsCampaign, ResumeTraceHasOneJournalSpan)
{
    const auto faults = digitalDutFaults();
    const std::string dir = ::testing::TempDir();
    const std::string fullPath = dir + "gfi_obs_journal_full.jsonl";
    const std::string plainPath = dir + "gfi_obs_journal_plain.jsonl";
    const std::string tracedPath = dir + "gfi_obs_journal_traced.jsonl";
    for (const std::string& p : {fullPath, plainPath, tracedPath}) {
        std::remove(p.c_str());
    }

    campaign::CampaignRunner first(dutFactory());
    configureDutRunner(first, 2);
    first.setJournalPath(fullPath);
    const campaign::CampaignReport fresh = first.run(faults);
    const std::string journal = slurp(fullPath);

    // What a killed campaign leaves: the first half of the lines, then half
    // of the next one.
    const std::size_t restorable = faults.size() / 2;
    std::size_t cut = 0;
    for (std::size_t i = 0; i < restorable; ++i) {
        cut = journal.find('\n', cut) + 1;
    }
    const std::string torn = journal.substr(cut, (journal.find('\n', cut) - cut) / 2);
    for (const std::string& p : {plainPath, tracedPath}) {
        std::ofstream(p, std::ios::binary) << journal.substr(0, cut) << torn;
    }

    // Telemetry off: the resumed campaign completes the journal line for
    // line, reports the fresh verdicts and prints only the resume line.
    campaign::CampaignRunner plain(dutFactory());
    configureDutRunner(plain, 2);
    plain.setJournalPath(plainPath);
    ::testing::internal::CaptureStderr();
    const campaign::CampaignReport resumed = plain.run(faults);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "gfi: journal " + plainPath + ": " + std::to_string(restorable) +
                       " entries loaded, " + std::to_string(restorable) +
                       " restorable, 1 torn/corrupt line skipped\n");
    EXPECT_EQ(slurp(plainPath), journal.substr(0, cut) + torn + "\n" + journal.substr(cut));
    campaign::CampaignReport unflagged = resumed;
    for (std::size_t i = 0; i < unflagged.runs.size(); ++i) {
        EXPECT_EQ(unflagged.runs[i].diagnostics.fromJournal, i < restorable) << i;
        unflagged.runs[i].diagnostics.fromJournal = false;
    }
    EXPECT_EQ(campaign::reportToJson(unflagged), campaign::reportToJson(fresh));

    // Traced: exactly one journal span, and the same report.
    obs::Telemetry telemetry;
    telemetry.enableTracing();
    campaign::CampaignRunner traced(dutFactory());
    configureDutRunner(traced, 2);
    traced.setJournalPath(tracedPath);
    traced.setTelemetry(telemetry);
    ::testing::internal::CaptureStderr();
    const campaign::CampaignReport tracedReport = traced.run(faults);
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countOccurrences(telemetry.trace()->json(), "\"name\": \"journal\""), 1u);
    EXPECT_EQ(campaign::reportToJson(tracedReport), campaign::reportToJson(resumed));

    // A campaign without a journal has no journal span.
    obs::Telemetry unjournaled;
    unjournaled.enableTracing();
    campaign::CampaignRunner bare(dutFactory());
    configureDutRunner(bare, 2);
    bare.setTelemetry(unjournaled);
    (void)bare.run(faults);
    EXPECT_EQ(countOccurrences(unjournaled.trace()->json(), "\"name\": \"journal\""), 0u);

    for (const std::string& p : {fullPath, plainPath, tracedPath}) {
        std::remove(p.c_str());
    }
}

// The campaign's stage spans follow one another: golden ends at or before
// collapse starts, as rendered.
TEST(ObsCampaign, TracedGoldenEndsBeforeCollapse)
{
    obs::Telemetry telemetry;
    telemetry.enableTracing();
    campaign::CampaignRunner runner(dutFactory());
    configureDutRunner(runner, 2);
    runner.setFaultCollapsing(true);
    runner.setTelemetry(telemetry);
    ::testing::internal::CaptureStderr();
    (void)runner.run(digitalDutFaults());
    (void)::testing::internal::GetCapturedStderr();

    const std::string json = telemetry.trace()->json();
    const std::vector<util::JsonValue> golden = spansNamed(json, "golden");
    const std::vector<util::JsonValue> collapse = spansNamed(json, "collapse");
    ASSERT_EQ(golden.size(), 1u) << json;
    ASSERT_EQ(collapse.size(), 1u) << json;
    const auto nanos = [](const util::JsonValue& span, const char* key) {
        return std::llround(span.find(key)->asNumber() * 1000);
    };
    EXPECT_LE(nanos(golden[0], "ts") + nanos(golden[0], "dur"), nanos(collapse[0], "ts"));
}

TEST(ObsCampaign, TimeoutRunCarriesProbeSnapshot)
{
    auto faults = digitalDutFaults();
    faults.resize(1);

    campaign::CampaignRunner runner(dutFactory());
    configureDutRunner(runner, 1);
    WatchdogConfig watchdog;
    watchdog.digitalWaves = 50; // far below a full run; golden is unaffected
    runner.setWatchdogConfig(watchdog);
    const campaign::CampaignReport report = runner.run(faults);

    ASSERT_EQ(report.runs.size(), 1u);
    const campaign::RunResult& r = report.runs[0];
    EXPECT_EQ(r.outcome, campaign::Outcome::Timeout);
    ASSERT_TRUE(r.diagnostics.probes.valid)
        << "the stall picture must survive the watchdog unwind";
    EXPECT_GT(r.diagnostics.probes.deltaCycles, 0u);
    EXPECT_GT(r.diagnostics.probes.digitalEvents, 0u);
    EXPECT_NE(r.diagnostics.probes.stallSummary().find("waves"), std::string::npos);
}

TEST(ObsCampaign, NonForkResumeSuppressesForkFooter)
{
    auto faults = digitalDutFaults();
    faults.resize(4);
    const std::string path = ::testing::TempDir() + "gfi_obs_footer.jsonl";
    std::remove(path.c_str());

    // Fork-mode campaign with timing on: forked runs carry checkpoint
    // bookkeeping into the journal and the summary prints the fork footer.
    campaign::CampaignRunner forked(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    forked.setWorkers(1);
    forked.setJournalPath(path);
    forked.setCheckpointCadence(1); // > 0 turns fork mode on
    const campaign::CampaignReport forkedReport = forked.run(faults);
    EXPECT_NE(forkedReport.summaryTable().find("forked runs"), std::string::npos);

    // Resuming that journal with forking disabled must not resurrect the
    // footer: this campaign forked nothing.
    campaign::CampaignRunner scratch(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    scratch.setWorkers(1);
    scratch.setJournalPath(path);
    scratch.setCheckpointCadence(0);
    const campaign::CampaignReport resumedReport = scratch.run(faults);
    for (const campaign::RunResult& r : resumedReport.runs) {
        EXPECT_TRUE(r.diagnostics.fromJournal);
        EXPECT_EQ(r.diagnostics.checkpointTime, 0);
        EXPECT_EQ(r.diagnostics.resimulatedTime, 0);
    }
    EXPECT_EQ(resumedReport.summaryTable().find("forked runs"), std::string::npos)
        << resumedReport.summaryTable();

    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Journal probe embedding

TEST(ObsJournal, ProbesRoundTrip)
{
    campaign::RunResult r;
    r.outcome = campaign::Outcome::Latent;
    r.diagnostics.probes.valid = true;
    r.diagnostics.probes.digitalEvents = 123;
    r.diagnostics.probes.deltaCycles = 45;
    r.diagnostics.probes.queueHighWater = 7;
    r.diagnostics.probes.pendingEvents = 2;
    r.diagnostics.probes.analogAcceptedSteps = 900;
    r.diagnostics.probes.analogRejectedSteps = 11;
    r.diagnostics.probes.newtonIterations = 2345;
    r.diagnostics.probes.companionRebuilds = 3;
    r.diagnostics.probes.crossingFallbacks = 4; // telemetry only: not journaled
    r.diagnostics.probes.minAcceptedDt = 1.25e-12;
    r.diagnostics.probes.lastAcceptedDt = 5e-10;
    r.diagnostics.probes.atodCrossings = 17;
    r.diagnostics.probes.dtoaEvents = 19;

    // Without the opt-in (or without a valid snapshot) the line format stays
    // exactly historical.
    EXPECT_EQ(campaign::CampaignJournal::entryToJson(0, r).find("probes"),
              std::string::npos);
    campaign::RunResult bare;
    EXPECT_EQ(campaign::CampaignJournal::entryToJson(0, bare, true).find("probes"),
              std::string::npos);

    const std::string line = campaign::CampaignJournal::entryToJson(9, r, true);
    EXPECT_TRUE(balancedJson(line)) << line;
    const auto parsed = campaign::CampaignJournal::parseLine(line);
    ASSERT_TRUE(parsed.has_value()) << line;

    const obs::ProbeSnapshot& p = parsed->result.diagnostics.probes;
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.digitalEvents, 123u);
    EXPECT_EQ(p.deltaCycles, 45u);
    EXPECT_EQ(p.queueHighWater, 7u);
    EXPECT_EQ(p.pendingEvents, 2u);
    EXPECT_EQ(p.analogAcceptedSteps, 900u);
    EXPECT_EQ(p.analogRejectedSteps, 11u);
    EXPECT_EQ(p.newtonIterations, 2345u);
    EXPECT_EQ(p.companionRebuilds, 3u);
    EXPECT_EQ(p.crossingFallbacks, 0u);
    EXPECT_EQ(line.find("fallback"), std::string::npos);
    EXPECT_NEAR(p.minAcceptedDt, 1.25e-12, 1e-18);
    EXPECT_NEAR(p.lastAcceptedDt, 5e-10, 1e-16);
    EXPECT_EQ(p.atodCrossings, 17u);
    EXPECT_EQ(p.dtoaEvents, 19u);

    const auto plain = campaign::CampaignJournal::parseLine(
        campaign::CampaignJournal::entryToJson(9, r, false));
    ASSERT_TRUE(plain.has_value());
    EXPECT_FALSE(plain->result.diagnostics.probes.valid);
}

// ---------------------------------------------------------------------------
// Trace writer hardening

TEST(ObsTrace, EscapesControlCharacters)
{
    obs::Telemetry telemetry;
    telemetry.enableTracing();
    ASSERT_NE(telemetry.trace(), nullptr);
    // Span names are caller-controlled; every JSON-hostile byte must come out
    // escaped so the trace file always parses.
    telemetry.trace()->instantEvent("tab\there \"quoted\" back\\slash\nnl\rcr \x01 bell",
                                    "test");
    const std::string json = telemetry.trace()->json();
    EXPECT_NE(json.find("tab\\there"), std::string::npos) << json;
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("\\nnl"), std::string::npos);
    EXPECT_NE(json.find("\\rcr"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    for (char c : json) {
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
            << "raw control byte leaked into the trace JSON";
    }
    EXPECT_NO_THROW(util::parseJson(json)) << json;
}

TEST(ObsTrace, ConcurrentSpanEmission)
{
    obs::Telemetry telemetry;
    telemetry.enableTracing();
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 400;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&telemetry, t] {
            telemetry.trace()->nameCurrentTrack("worker " + std::to_string(t));
            for (int i = 0; i < kSpansPerThread; ++i) {
                obs::Span span(&telemetry, "run " + std::to_string(i), "test");
                span.setArgs("{\"thread\": " + std::to_string(t) + "}");
                if (i % 50 == 0) {
                    telemetry.trace()->instantEvent("mark", "test");
                }
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }

    // Per thread: one metadata event, kSpansPerThread spans, 8 instants.
    EXPECT_EQ(telemetry.trace()->eventCount(),
              static_cast<std::size_t>(kThreads) * (1 + kSpansPerThread + 8));
    const std::string json = telemetry.trace()->json();
    EXPECT_TRUE(balancedJson(json));
    const util::JsonValue doc = util::parseJson(json);
    const util::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->asArray().size(), telemetry.trace()->eventCount());
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(ObsFlightRecorder, RingKeepsLastWindow)
{
    obs::FlightRecorder fr(4);
    EXPECT_EQ(fr.capacity(), 4u);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.lastOfKind(obs::FlightRecorder::Kind::Wave), nullptr);
    EXPECT_TRUE(fr.jsonl().empty());

    for (std::uint64_t i = 0; i < 10; ++i) {
        fr.record(obs::FlightRecorder::Kind::Wave, static_cast<SimTime>(i * 10), 0.0, i,
                  i + 1, 0.0);
    }
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.totalRecorded(), 10u);

    const std::vector<obs::FlightRecorder::Event> window = fr.window();
    ASSERT_EQ(window.size(), 4u);
    for (std::size_t i = 0; i < window.size(); ++i) {
        EXPECT_EQ(window[i].a, 6u + i) << "window must be the oldest-to-newest tail";
    }
    const obs::FlightRecorder::Event* last =
        fr.lastOfKind(obs::FlightRecorder::Kind::Wave);
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->a, 9u);
    EXPECT_EQ(fr.lastOfKind(obs::FlightRecorder::Kind::Restore), nullptr);

    // Each JSONL line is one parseable object with the kind-specific payload.
    std::istringstream lines(fr.jsonl());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        const util::JsonValue v = util::parseJson(line);
        EXPECT_EQ(v.find("seq")->asNumber(), static_cast<double>(n));
        EXPECT_EQ(v.find("kind")->asString(), "wave");
        EXPECT_EQ(v.find("waves")->asNumber(), static_cast<double>(6 + n));
        EXPECT_EQ(v.find("pending_events")->asNumber(), static_cast<double>(7 + n));
        ++n;
    }
    EXPECT_EQ(n, 4u);

    const util::JsonValue trace = util::parseJson(fr.chromeTraceJson());
    const util::JsonValue* events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // 4 track-name metadata events plus the 4-event window.
    EXPECT_EQ(events->asArray().size(), 8u);

    fr.clear();
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.totalRecorded(), 0u);
}

TEST(ObsFlightRecorder, WriteArtifactsCreatesDirectories)
{
    const std::string root = ::testing::TempDir() + "gfi_fr_artifacts";
    std::filesystem::remove_all(root);
    const std::string stem = root + "/nested/run-test-a1";

    obs::FlightRecorder fr;
    fr.record(obs::FlightRecorder::Kind::SolverAccept, 0, 1.5e-6, 42, 0, 2.5e-9);
    fr.record(obs::FlightRecorder::Kind::AtoD, 2 * kMicrosecond, 2e-6, 7, 0, 1.0);
    fr.writeArtifacts(stem);

    const std::string jsonl = slurp(stem + ".jsonl");
    ASSERT_FALSE(jsonl.empty());
    EXPECT_NE(jsonl.find("\"kind\": \"solver-accept\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"rising\": true"), std::string::npos);
    const std::string trace = slurp(stem + ".trace.json");
    EXPECT_NO_THROW(util::parseJson(trace)) << trace;

    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Forensic dumps from the campaign engine

TEST(ObsForensics, TimeoutDumpMatchesStallSnapshot)
{
    auto faults = digitalDutFaults();
    faults.resize(1);

    auto runWithForensics = [&](const std::string& dir) {
        std::filesystem::remove_all(dir);
        campaign::CampaignRunner runner(dutFactory());
        configureDutRunner(runner, 1);
        WatchdogConfig watchdog;
        watchdog.digitalWaves = 50; // seeded Timeout; golden is unaffected
        runner.setWatchdogConfig(watchdog);
        runner.setForensics(dir);
        return runner.run(faults);
    };

    const std::string dir = ::testing::TempDir() + "gfi_forensics_a";
    const campaign::CampaignReport report = runWithForensics(dir);
    ASSERT_EQ(report.runs.size(), 1u);
    const campaign::RunDiagnostics& d = report.runs[0].diagnostics;
    EXPECT_EQ(report.runs[0].outcome, campaign::Outcome::Timeout);
    ASSERT_FALSE(d.forensic.empty()) << "abnormal outcome must dump a forensic window";
    EXPECT_EQ(d.forensic.rfind(dir + "/run-", 0), 0u) << d.forensic;

    // The final recorded wave must agree with the stall snapshot's scheduler
    // counters: the watchdog threw immediately after that record, so nothing
    // ran in between.
    const std::string jsonl = slurp(d.forensic + ".jsonl");
    ASSERT_FALSE(jsonl.empty());
    std::istringstream lines(jsonl);
    std::string line;
    std::string lastWave;
    while (std::getline(lines, line)) {
        if (util::parseJson(line).find("kind")->asString() == "wave") {
            lastWave = line;
        }
    }
    ASSERT_FALSE(lastWave.empty());
    const util::JsonValue wave = util::parseJson(lastWave);
    ASSERT_TRUE(d.probes.valid);
    EXPECT_EQ(wave.find("waves")->asNumber(), static_cast<double>(d.probes.deltaCycles));
    EXPECT_EQ(wave.find("pending_events")->asNumber(),
              static_cast<double>(d.probes.pendingEvents));

    // Perfetto-loadable companion artifact with a non-empty event list.
    const util::JsonValue trace = util::parseJson(slurp(d.forensic + ".trace.json"));
    const util::JsonValue* events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->asArray().size(), 4u);

    // Determinism: the same campaign dumps byte-identical artifacts — events
    // carry simulated time and kernel counters only, never the wall clock.
    const std::string dir2 = ::testing::TempDir() + "gfi_forensics_b";
    const campaign::CampaignReport again = runWithForensics(dir2);
    ASSERT_FALSE(again.runs[0].diagnostics.forensic.empty());
    EXPECT_EQ(slurp(again.runs[0].diagnostics.forensic + ".jsonl"), jsonl);
    EXPECT_EQ(slurp(again.runs[0].diagnostics.forensic + ".trace.json"),
              slurp(d.forensic + ".trace.json"));

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir2);
}

TEST(ObsForensics, JournalCarriesForensicStem)
{
    campaign::RunResult r;
    r.outcome = campaign::Outcome::Timeout;
    r.diagnostics.forensic = "forensics/run-0123abcd-a1";
    const std::string line = campaign::CampaignJournal::entryToJson(4, r);
    EXPECT_NE(line.find("\"forensic\": \"forensics/run-0123abcd-a1\""),
              std::string::npos)
        << line;
    const auto parsed = campaign::CampaignJournal::parseLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->result.diagnostics.forensic, r.diagnostics.forensic);

    // No dump -> historical line format, byte for byte.
    campaign::RunResult bare;
    EXPECT_EQ(campaign::CampaignJournal::entryToJson(4, bare).find("forensic"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Live progress streaming

TEST(ObsProgress, DeterministicHeartbeatStream)
{
    const auto faults = digitalDutFaults();

    // The workers field reports the actual pool width, so normalize it
    // before comparing streams across widths.
    auto maskWorkers = [](std::string line) {
        const std::string key = "\"workers\": ";
        const std::size_t at = line.find(key);
        if (at != std::string::npos) {
            std::size_t end = at + key.size();
            while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end]))) {
                ++end;
            }
            line.replace(at + key.size(), end - (at + key.size()), "W");
        }
        return line;
    };

    // The done line's outcome counts must equal the finished report's
    // histogram at every width.
    auto runStream = [&](unsigned workers) {
        std::vector<std::string> lines;
        campaign::CampaignRunner runner(dutFactory());
        configureDutRunner(runner, workers);
        runner.setProgressSink([&lines](const std::string& l) { lines.push_back(l); },
                               0.0); // <= 0: one heartbeat per commit
        const campaign::CampaignReport report = runner.run(faults);
        const util::JsonValue done = util::parseJson(lines.back());
        const util::JsonValue* outcomes = done.find("outcomes");
        EXPECT_NE(outcomes, nullptr);
        if (outcomes != nullptr) {
            std::map<campaign::Outcome, int> counts;
            for (const auto& [name, count] : outcomes->asObject()) {
                campaign::Outcome o{};
                EXPECT_TRUE(campaign::outcomeFromString(name, o)) << name;
                if (count.asNumber() > 0) {
                    counts[o] = static_cast<int>(count.asNumber());
                }
            }
            EXPECT_EQ(counts, report.histogram()) << "workers=" << workers;
        }
        return lines;
    };

    auto masked = [&](std::vector<std::string> lines) {
        for (std::string& l : lines) {
            l = maskWorkers(std::move(l));
        }
        return lines;
    };

    const std::vector<std::string> serial = runStream(1);
    // One start line, one heartbeat per committed run, one done line.
    ASSERT_EQ(serial.size(), faults.size() + 2);
    EXPECT_NE(serial.front().find("\"event\": \"start\""), std::string::npos);
    EXPECT_NE(serial.front().find("\"total\": " + std::to_string(faults.size())),
              std::string::npos)
        << serial.front();
    EXPECT_NE(serial.back().find("\"event\": \"done\""), std::string::npos);
    EXPECT_NE(serial.back().find("\"completed\": " + std::to_string(faults.size())),
              std::string::npos);

    std::size_t lastCompleted = 0;
    for (const std::string& line : serial) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.back(), '\n');
        const util::JsonValue v = util::parseJson(line);
        const std::size_t completed =
            static_cast<std::size_t>(v.find("completed")->asNumber());
        EXPECT_GE(completed, lastCompleted) << "cumulative counts must be monotone";
        lastCompleted = completed;
        ASSERT_NE(v.find("outcomes"), nullptr);
        // With timing recording off the stream is byte-deterministic: the
        // elapsed clock is pinned and the rate/ETA fields are omitted.
        EXPECT_EQ(v.find("elapsed_s")->asNumber(), 0.0);
        EXPECT_EQ(v.find("runs_per_s"), nullptr);
        EXPECT_EQ(v.find("eta_s"), nullptr);
    }

    // The stream commits in fault order, so it is identical at any width
    // apart from the reported pool size.
    EXPECT_EQ(masked(runStream(4)), masked(serial));
    EXPECT_EQ(masked(runStream(8)), masked(serial));
}

TEST(ObsProgress, ResumeReportsCumulativeCounts)
{
    const auto faults = digitalDutFaults();
    const std::string path = ::testing::TempDir() + "gfi_obs_progress_resume.jsonl";
    std::remove(path.c_str());

    campaign::CampaignRunner first(dutFactory());
    configureDutRunner(first, 2);
    first.setJournalPath(path);
    first.run(faults);

    std::vector<std::string> lines;
    campaign::CampaignRunner resumed(dutFactory());
    configureDutRunner(resumed, 2);
    resumed.setJournalPath(path);
    resumed.setProgressSink([&lines](const std::string& l) { lines.push_back(l); }, 0.0);
    resumed.run(faults);

    // A fully-journaled campaign still reports every run: restored + new is
    // cumulative, never from zero.
    ASSERT_GE(lines.size(), 2u);
    const util::JsonValue start = util::parseJson(lines.front());
    EXPECT_EQ(start.find("restorable")->asNumber(), static_cast<double>(faults.size()));
    const util::JsonValue done = util::parseJson(lines.back());
    EXPECT_EQ(done.find("completed")->asNumber(), static_cast<double>(faults.size()));
    EXPECT_EQ(done.find("restored")->asNumber(), static_cast<double>(faults.size()));

    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-fault cost attribution

TEST(ObsCost, AttributionIsJournaledDataOnly)
{
    const auto faults = digitalDutFaults();

    auto costJsonAt = [&](unsigned workers) {
        campaign::CampaignRunner runner(dutFactory());
        configureDutRunner(runner, workers);
        const campaign::CampaignReport report = runner.run(faults);
        return campaign::buildCostReport(report).toJson();
    };

    const std::string serial = costJsonAt(1);
    EXPECT_EQ(costJsonAt(8), serial)
        << "cost attribution must not depend on worker width";
    EXPECT_TRUE(balancedJson(serial)) << serial;

    campaign::CampaignRunner runner(dutFactory());
    configureDutRunner(runner, 2);
    const campaign::CampaignReport report = runner.run(faults);
    const campaign::CostReport cost = campaign::buildCostReport(report);
    EXPECT_EQ(cost.total.runs, faults.size());
    EXPECT_EQ(cost.total.attempts, faults.size()) << "no retries in this campaign";
    EXPECT_GT(cost.total.digitalWaves, 0u);
    ASSERT_EQ(cost.byClass.count("bit-flip"), 1u);
    EXPECT_EQ(cost.byClass.at("bit-flip").runs, faults.size());

    std::size_t outcomeRuns = 0;
    for (const auto& [name, bucket] : cost.byOutcome) {
        outcomeRuns += bucket.runs;
    }
    EXPECT_EQ(outcomeRuns, faults.size());

    const std::string table = cost.table();
    EXPECT_NE(table.find("bit-flip"), std::string::npos) << table;

    // Resume path: a report rebuilt purely from the journal attributes the
    // identical cost (restored flag aside, which the bucket counts).
    const std::string path = ::testing::TempDir() + "gfi_obs_cost_resume.jsonl";
    std::remove(path.c_str());
    campaign::CampaignRunner journaled(dutFactory());
    configureDutRunner(journaled, 2);
    journaled.setJournalPath(path);
    const campaign::CampaignReport fresh = journaled.run(faults);

    campaign::CampaignRunner resumed(dutFactory());
    configureDutRunner(resumed, 2);
    resumed.setJournalPath(path);
    const campaign::CampaignReport restored = resumed.run(faults);
    const campaign::CostReport freshCost = campaign::buildCostReport(fresh);
    const campaign::CostReport restoredCost = campaign::buildCostReport(restored);
    EXPECT_EQ(restoredCost.total.runs, freshCost.total.runs);
    EXPECT_EQ(restoredCost.total.digitalWaves, freshCost.total.digitalWaves);
    EXPECT_EQ(restoredCost.total.restored, faults.size());
    EXPECT_EQ(freshCost.total.restored, 0u);

    std::remove(path.c_str());
}

TEST(ObsCost, CsvCostColumnsAreOptIn)
{
    auto faults = digitalDutFaults();
    faults.resize(4);
    campaign::CampaignRunner runner(dutFactory());
    configureDutRunner(runner, 1);
    const campaign::CampaignReport report = runner.run(faults);

    const std::string plainPath = ::testing::TempDir() + "gfi_obs_plain.csv";
    const std::string costPath = ::testing::TempDir() + "gfi_obs_cost.csv";
    campaign::writeReportCsv(report, plainPath);
    campaign::CsvOptions options;
    options.costColumns = true;
    campaign::writeReportCsv(report, costPath, options);

    const std::string plain = slurp(plainPath);
    const std::string withCost = slurp(costPath);
    EXPECT_EQ(plain.find("digital_waves"), std::string::npos)
        << "default CSV shape must stay byte-identical to the pre-cost format";
    EXPECT_NE(withCost.find("digital_waves"), std::string::npos);
    EXPECT_NE(withCost.find("analog_steps"), std::string::npos);
    EXPECT_NE(withCost.find("forensic"), std::string::npos);
    EXPECT_EQ(countOccurrences(plain, "\n"), countOccurrences(withCost, "\n"));

    std::remove(plainPath.c_str());
    std::remove(costPath.c_str());
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(ObsJson, ParsesValuesStringsAndStructure)
{
    const util::JsonValue v = util::parseJson(
        R"({"a": [1, 2.5, -3e2, true, null], "b": {"c": "x\"y\\zé"}, "a": 9})");
    const util::JsonValue* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->asArray().size(), 5u) << "duplicate keys: first match wins";
    EXPECT_DOUBLE_EQ(a->asArray()[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(a->asArray()[2].asNumber(), -300.0);
    EXPECT_TRUE(a->asArray()[3].asBool());
    EXPECT_TRUE(a->asArray()[4].isNull());
    EXPECT_EQ(v.find("b")->find("c")->asString(), "x\"y\\z\xc3\xa9");
    EXPECT_EQ(v.find("absent"), nullptr);
    EXPECT_EQ(v.asObject().size(), 3u) << "duplicates are kept in document order";

    // Surrogate pair -> 4-byte UTF-8.
    EXPECT_EQ(util::parseJson("\"\\ud83d\\ude00\"").asString(), "\xf0\x9f\x98\x80");
    EXPECT_THROW((void)util::parseJson(R"("\ud83d")").asString(), std::runtime_error)
        << "lone surrogate";
}

TEST(ObsJson, RejectsMalformedInput)
{
    const char* bad[] = {
        "",          "{",          "[1,]",  "{\"a\": 1,}", "\"unterminated",
        "1 2",       "{\"a\" 1}",  "nul",   "[1 2]",       "{1: 2}",
    };
    for (const char* text : bad) {
        EXPECT_THROW(util::parseJson(text), std::runtime_error) << text;
    }
    // Raw control characters are illegal inside string literals.
    EXPECT_THROW(util::parseJson(std::string("\"a\x01b\"")), std::runtime_error);
    // Depth bomb: past the nesting bound the parser bails instead of
    // recursing toward a stack overflow.
    const std::string deep(100, '[');
    EXPECT_THROW(util::parseJson(deep + std::string(100, ']')), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bench regression comparison

std::string benchDoc(const std::string& buildType, double speedup, double eventS,
                     const std::string& sha = "abc1234")
{
    return "{\"meta\": {\"schema\": 1, \"tool\": \"perf_x\", \"git_sha\": \"" + sha +
           "\", \"build_type\": \"" + buildType +
           "\", \"workers\": 0, \"timestamp\": \"2026-01-01T00:00:00Z\"}, "
           "\"benchmark\": \"perf_x\", \"runs\": 120, \"event_s\": " +
           formatDouble(eventS, 6) + ", \"speedup\": " + formatDouble(speedup, 6) +
           ", \"identical\": true}\n";
}

TEST(ObsBenchDiff, SelfCompareIsClean)
{
    const obs::BenchSet set =
        obs::parseBenchSet(benchDoc("Release", 6.0, 2.0), "a.json");
    ASSERT_TRUE(set.meta.present);
    EXPECT_EQ(set.meta.tool, "perf_x");
    EXPECT_EQ(set.meta.buildType, "Release");
    ASSERT_EQ(set.samples.size(), 1u);
    EXPECT_EQ(set.samples[0].name, "perf_x");
    ASSERT_NE(set.samples[0].value("speedup"), nullptr);
    EXPECT_DOUBLE_EQ(*set.samples[0].value("speedup"), 6.0);

    const obs::BenchComparison cmp = obs::compareBenchSets(set, set, 0.20);
    EXPECT_FALSE(cmp.refused());
    EXPECT_EQ(cmp.regressions(), 0u);
    for (const obs::BenchDelta& d : cmp.deltas) {
        EXPECT_FALSE(d.regression) << d.metric;
        EXPECT_FALSE(d.improvement) << d.metric;
    }
}

TEST(ObsBenchDiff, FlagsRegressionsBeyondThreshold)
{
    const obs::BenchSet base =
        obs::parseBenchSet(benchDoc("Release", 6.0, 2.0), "base.json");
    // Speedup down 33 %, duration up 50 %: both beyond a 20 % threshold.
    const obs::BenchSet worse =
        obs::parseBenchSet(benchDoc("Release", 4.0, 3.0), "cur.json");
    const obs::BenchComparison cmp = obs::compareBenchSets(base, worse, 0.20);
    EXPECT_FALSE(cmp.refused());
    EXPECT_EQ(cmp.regressions(), 2u) << cmp.table();
    EXPECT_NE(cmp.table().find("REGRESSION"), std::string::npos);

    // The same magnitudes in the good direction are improvements, not noise.
    const obs::BenchSet better =
        obs::parseBenchSet(benchDoc("Release", 9.0, 1.0), "cur.json");
    const obs::BenchComparison up = obs::compareBenchSets(base, better, 0.20);
    EXPECT_EQ(up.regressions(), 0u);
    std::size_t improvements = 0;
    for (const obs::BenchDelta& d : up.deltas) {
        improvements += d.improvement ? 1 : 0;
    }
    EXPECT_EQ(improvements, 2u);

    // Within-threshold drift is stable.
    const obs::BenchSet close =
        obs::parseBenchSet(benchDoc("Release", 5.5, 2.1), "cur.json");
    EXPECT_EQ(obs::compareBenchSets(base, close, 0.20).regressions(), 0u);
}

TEST(ObsBenchDiff, RefusesMetaMismatchWarnsOnSha)
{
    const obs::BenchSet rel = obs::parseBenchSet(benchDoc("Release", 6.0, 2.0), "a");
    const obs::BenchSet dbg = obs::parseBenchSet(benchDoc("Debug", 6.0, 2.0), "b");
    const obs::BenchComparison refused = obs::compareBenchSets(rel, dbg, 0.20);
    EXPECT_TRUE(refused.refused());
    EXPECT_NE(refused.table().find("INCOMPATIBLE"), std::string::npos);

    // Differing revisions are expected (that is the point of a diff): warn.
    const obs::BenchSet newer =
        obs::parseBenchSet(benchDoc("Release", 6.0, 2.0, "def5678"), "c");
    const obs::BenchComparison shaDiff = obs::compareBenchSets(rel, newer, 0.20);
    EXPECT_FALSE(shaDiff.refused());
    EXPECT_FALSE(shaDiff.warnings.empty());

    // Legacy artifact without a meta block: comparable, but flagged.
    const obs::BenchSet bare = obs::parseBenchSet(
        "{\"benchmark\": \"perf_x\", \"speedup\": 6.0}\n", "legacy");
    EXPECT_FALSE(bare.meta.present);
    const obs::BenchComparison legacy = obs::compareBenchSets(bare, rel, 0.20);
    EXPECT_FALSE(legacy.refused());
    EXPECT_FALSE(legacy.warnings.empty());
}

TEST(ObsBenchDiff, MetricDirectionInference)
{
    using obs::MetricDirection;
    EXPECT_EQ(obs::metricDirection("speedup"), MetricDirection::HigherIsBetter);
    EXPECT_EQ(obs::metricDirection("runs_per_s"), MetricDirection::HigherIsBetter);
    EXPECT_EQ(obs::metricDirection("items_per_second"), MetricDirection::HigherIsBetter);
    EXPECT_EQ(obs::metricDirection("event_s"), MetricDirection::LowerIsBetter);
    EXPECT_EQ(obs::metricDirection("wall_ms"), MetricDirection::LowerIsBetter);
    EXPECT_EQ(obs::metricDirection("golden_accepted_steps_per_us"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(obs::metricDirection("faulty_linear_solves_per_us"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(obs::metricDirection("golden_crossings_per_us"), MetricDirection::LowerIsBetter);
    EXPECT_EQ(obs::metricDirection("runs"), MetricDirection::Ignore);
    EXPECT_EQ(obs::metricDirection("identical"), MetricDirection::Ignore);
    EXPECT_EQ(obs::metricDirection("iterations"), MetricDirection::Ignore);
}

} // namespace
} // namespace gfi
