// Tests for the one JSON codec (util/json): the campaign journal reader is
// fuzzed with torn, garbled and out-of-range lines built from strings that
// stress the escaper, and every JSON writer is checked to emit documents the
// strict reader accepts when names carry control characters.

#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "lint/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace gfi {
namespace {

using campaign::CampaignJournal;
using campaign::Outcome;
using campaign::RunResult;

/// Every byte class the escaper has a rule for, plus UTF-8 ("µ", "→").
const std::string kNasty = "a}b\"c\\d\te\rf\x01g\xc2\xb5h\xe2\x86\x92}";

struct JournalLine {
    std::size_t index = 0;
    RunResult result;
    bool probes = false;
    std::string text; ///< entryToJson(index, result, probes)
};

std::vector<JournalLine> nastyLines()
{
    std::vector<JournalLine> lines(4);

    RunResult& a = lines[0].result;
    a.fault = fault::BitFlipFault{"dut/" + kNasty, 3, 2 * kMicrosecond};
    a.outcome = Outcome::SimError;
    a.diagnostics.error = "step " + kNasty + " failed}";
    a.diagnostics.attempts = 2;
    a.diagnostics.wallSeconds = 0.0123456789;
    a.diagnostics.digitalWaves = 1234;
    a.diagnostics.analogSteps = 56;
    a.firstOutputError = 1500;
    a.lastOutputErrorEnd = 2500;
    a.totalOutputErrorTime = 1000;
    a.maxAnalogDeviation = 0.123456789123;
    a.analogTimeOutsideTol = 1.5e-9;
    a.erredSignals = {"out}", kNasty, ""};
    a.corruptedState = {"st\\ate"};

    RunResult& b = lines[1].result;
    b.fault = fault::DigitalPulseFault{"sab/" + kNasty, 40 * kNanosecond, 2 * kNanosecond};
    b.outcome = Outcome::Failure;
    b.diagnostics.collapsedFrom = "set-pulse " + kNasty;
    b.diagnostics.batchLane = 63;
    b.diagnostics.checkpointTime = 1000000;
    b.diagnostics.resimulatedTime = 3000000;

    RunResult& c = lines[2].result;
    c.fault = fault::StuckAtFault{"n}" + kNasty, digital::Logic::One, 0, 0};
    c.outcome = Outcome::Timeout;
    c.diagnostics.error = kNasty;
    c.diagnostics.forensic = "forensics/run-" + kNasty;
    c.erredSignals = {"x"};

    RunResult& d = lines[3].result;
    d.fault = fault::BitFlipFault{"dut/cnt", 0, kMicrosecond};
    d.outcome = Outcome::Latent;
    d.corruptedState = {"dut/cnt"};
    d.diagnostics.error = "probe}\"line";
    obs::ProbeSnapshot& p = d.diagnostics.probes;
    p.valid = true;
    p.digitalEvents = 10;
    p.deltaCycles = 4;
    p.queueHighWater = 7;
    p.pendingEvents = 1;
    p.analogAcceptedSteps = 100;
    p.analogRejectedSteps = 3;
    p.newtonIterations = 250;
    p.companionRebuilds = 2;
    p.minAcceptedDt = 1.25e-12;
    p.lastAcceptedDt = 3.5e-10;
    p.atodCrossings = 5;
    p.dtoaEvents = 6;
    lines[3].probes = true;

    for (std::size_t i = 0; i < lines.size(); ++i) {
        lines[i].index = 10 + i;
        lines[i].text = CampaignJournal::entryToJson(lines[i].index, lines[i].result,
                                                     lines[i].probes);
    }
    return lines;
}

/// @p line with the first occurrence of @p from replaced by @p to.
std::string edited(std::string line, const std::string& from, const std::string& to)
{
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << "'" << from << "' not in " << line;
    if (at != std::string::npos) {
        line.replace(at, from.size(), to);
    }
    return line;
}

/// Lines the reader must reject: each is a full line of nastyLines() with one
/// field made wrong, or garbage around it.
std::vector<std::string> corruptLines(const std::vector<JournalLine>& lines)
{
    const std::string& a = lines[0].text; // index 10, attempts 2, no batch lane
    const std::string& b = lines[1].text; // index 11, batch_lane 63
    const std::string& d = lines[3].text; // index 13, probes
    return {
        // Index: not a number, negative, fractional, beyond 2^53, missing.
        edited(a, "\"index\": 10", "\"index\": x"),
        edited(a, "\"index\": 10", "\"index\": -1"),
        edited(a, "\"index\": 10", "\"index\": 1.5"),
        edited(a, "\"index\": 10", "\"index\": 1e300"),
        edited(a, "\"index\": 10", "\"index\": \"10\""),
        edited(a, "\"index\": 10, ", ""),
        // Required strings: wrong type, missing, unknown outcome.
        edited(a, "\"fault\": \"", "\"fault\": 7, \"x\": \""),
        edited(a, "\"outcome\": \"sim-error\"", "\"outcome\": null"),
        edited(a, "\"outcome\": \"sim-error\"", "\"outcome\": \"bogus\""),
        edited(a, "\"outcome\": \"sim-error\", ", ""),
        // Trailing garbage and a second document.
        a + "x",
        a + "}",
        a + ",",
        a + " {}",
        // Negative counters.
        edited(a, "\"attempts\": 2", "\"attempts\": -1"),
        edited(a, "\"digital_waves\": 1234", "\"digital_waves\": -5"),
        edited(a, "\"analog_steps\": 56", "\"analog_steps\": -56"),
        edited(b, "\"batch_lane\": 63", "\"batch_lane\": -2"),
        edited(d, "\"digital_events\": 10", "\"digital_events\": -10"),
        // Out of range for the C++ type, or beyond 2^53.
        edited(a, "\"attempts\": 2", "\"attempts\": 4294967296"),
        edited(a, "\"attempts\": 2", "\"attempts\": 2147483648"),
        edited(b, "\"batch_lane\": 63", "\"batch_lane\": 2147483648"),
        edited(a, "\"digital_waves\": 1234", "\"digital_waves\": 18014398509481984"),
        edited(a, "\"first_output_error_fs\": 1500", "\"first_output_error_fs\": -1e17"),
        // Optional members with the wrong type.
        edited(a, "\"attempts\": 2", "\"attempts\": 2.5"),
        edited(a, "\"attempts\": 2", "\"attempts\": true"),
        edited(a, "\"error\": \"", "\"error\": 3, \"x\": \""),
        edited(a, "\"wall_s\": ", "\"wall_s\": \"1\", \"x\": "),
        edited(a, "\"erred_signals\": [", "\"erred_signals\": [1, "),
        edited(a, "\"corrupted_state\": [\"st\\\\ate\"]", "\"corrupted_state\": \"s\""),
        edited(d, "\"probes\": {", "\"probes\": 3, \"x\": {"),
        edited(d, "\"min_dt_s\": ", "\"min_dt_s\": null, \"x\": "),
        // Not JSON numbers or not an object at all.
        edited(a, "\"attempts\": 2", "\"attempts\": 02"),
        edited(a, "\"attempts\": 2", "\"attempts\": .5"),
        edited(a, "\"attempts\": 2", "\"attempts\": 2."),
        "[" + a + "]",
        "\"" + a + "\"",
        "17",
    };
}

TEST(JournalFuzz, EveryStrictPrefixIsRejected)
{
    for (const JournalLine& l : nastyLines()) {
        for (std::size_t n = 0; n < l.text.size(); ++n) {
            EXPECT_FALSE(CampaignJournal::parseLine(l.text.substr(0, n)).has_value())
                << "torn line accepted: " << l.text.substr(0, n);
        }
    }
}

TEST(JournalFuzz, FullLinesRoundTripByteIdentically)
{
    for (const JournalLine& l : nastyLines()) {
        const auto parsed = CampaignJournal::parseLine(l.text);
        ASSERT_TRUE(parsed.has_value()) << l.text;
        EXPECT_EQ(parsed->index, l.index);
        EXPECT_EQ(parsed->faultDescription, fault::describe(l.result.fault));
        EXPECT_TRUE(parsed->result.diagnostics.fromJournal);
        EXPECT_EQ(parsed->result.diagnostics.probes.valid, l.probes);
        // The journal stores the description, not the FaultSpec: re-attach
        // it the way resume and reportFromEntries do, then re-render.
        RunResult r = parsed->result;
        r.fault = l.result.fault;
        EXPECT_EQ(CampaignJournal::entryToJson(parsed->index, r, l.probes), l.text);
    }
}

TEST(JournalFuzz, CorruptFieldsAreRejected)
{
    const std::vector<JournalLine> lines = nastyLines();
    for (const std::string& bad : corruptLines(lines)) {
        EXPECT_FALSE(CampaignJournal::parseLine(bad).has_value()) << "accepted: " << bad;
    }
    // The boundaries themselves are fine.
    EXPECT_TRUE(CampaignJournal::parseLine(
                    edited(lines[0].text, "\"attempts\": 2", "\"attempts\": 2147483647"))
                    .has_value());
    EXPECT_TRUE(CampaignJournal::parseLine(edited(lines[0].text, "\"digital_waves\": 1234",
                                                  "\"digital_waves\": 9007199254740992"))
                    .has_value());
    EXPECT_TRUE(CampaignJournal::parseLine(" " + lines[0].text + " ").has_value());
}

TEST(JournalFuzz, LoadWithStatsCountsEveryRejectedLine)
{
    const std::string path = ::testing::TempDir() + "gfi_journal_fuzz.jsonl";
    const std::vector<JournalLine> lines = nastyLines();
    const std::vector<std::string> corrupt = corruptLines(lines);
    std::size_t torn = 0;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        for (const JournalLine& l : lines) {
            out << l.text << "\n\n"; // blank separators are not lost data
            // A prefix torn right after a '}' inside a string: looks closed.
            const std::size_t brace = l.text.find('}');
            out << l.text.substr(0, brace + 1) << "\n";
            ++torn;
        }
        for (const std::string& bad : corrupt) {
            out << bad << "\n";
        }
        // A final torn line without a newline.
        out << lines[0].text.substr(0, lines[0].text.size() - 1);
        ++torn;
    }
    const CampaignJournal::LoadResult loaded = CampaignJournal::loadWithStats(path);
    EXPECT_EQ(loaded.skippedLines, corrupt.size() + torn);
    ASSERT_EQ(loaded.entries.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(loaded.entries[i].index, lines[i].index);
    }
    std::remove(path.c_str());
}

TEST(JsonWriters, ControlCharacterNamesParseBack)
{
    const std::string name = "n\t\r\n\x01\x1f\"\\}";

    campaign::CampaignReport report;
    RunResult r;
    r.fault = fault::BitFlipFault{"dut/" + name, 0, kMicrosecond};
    r.outcome = Outcome::SimError;
    r.diagnostics.error = name;
    r.diagnostics.collapsedFrom = name;
    r.diagnostics.forensic = name;
    r.erredSignals = {name};
    report.runs.push_back(r);
    util::JsonValue doc;
    ASSERT_NO_THROW(doc = util::parseJson(campaign::reportToJson(report)));
    const util::JsonValue& run = doc.find("runs")->asArray().at(0);
    EXPECT_EQ(run.find("fault")->asString(), fault::describe(r.fault));
    EXPECT_EQ(run.find("error")->asString(), name);

    obs::TraceWriter trace;
    trace.nameCurrentTrack(name);
    trace.completeEvent(name, name, 0.0, 1.0);
    trace.instantEvent(name, name);
    ASSERT_NO_THROW(doc = util::parseJson(trace.json()));
    std::size_t named = 0;
    for (const util::JsonValue& e : doc.find("traceEvents")->asArray()) {
        const util::JsonValue* n = e.find("name");
        named += n != nullptr && n->asString() == name ? 1 : 0;
    }
    EXPECT_EQ(named, 2u);

    lint::Report lint;
    lint.add(name, lint::Severity::Warning, name, name, name);
    ASSERT_NO_THROW(doc = util::parseJson(lint.json()));
    EXPECT_EQ(doc.asArray().at(0).find("message")->asString(), name);

    obs::MetricsRegistry metrics;
    const std::string metric = "gfi_test{label=\"" + name + "\"}";
    metrics.counter(metric).inc(3);
    metrics.gauge(metric + "_g").set(1.5);
    metrics.histogram(metric + "_h", {1.0}).observe(0.5);
    ASSERT_NO_THROW(doc = util::parseJson(metrics.json()));
    ASSERT_NE(doc.find("counters")->find(metric), nullptr);
    EXPECT_EQ(doc.find("counters")->find(metric)->asNumber(), 3.0);
    EXPECT_NE(doc.find("gauges")->find(metric + "_g"), nullptr);
    EXPECT_NE(doc.find("histograms")->find(metric + "_h"), nullptr);
}

TEST(JsonWriters, EscapeRuleIsExact)
{
    EXPECT_EQ(util::jsonEscape("plain/text \xc2\xb5"), "plain/text \xc2\xb5");
    EXPECT_EQ(util::jsonEscape("\"\\\n\t\r"), "\\\"\\\\\\n\\t\\r");
    EXPECT_EQ(util::jsonEscape(std::string("\x00\x01\x1f\x20", 4)), "\\u0000\\u0001\\u001f ");
    for (int c = 0; c < 256; ++c) {
        const std::string s(1, static_cast<char>(c));
        EXPECT_EQ(util::parseJson("\"" + util::jsonEscape(s) + "\"").asString(), s) << c;
    }
}

} // namespace
} // namespace gfi
