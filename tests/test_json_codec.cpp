// Tests for the one JSON codec (util/json): the campaign journal reader is
// fuzzed with torn, garbled and out-of-range lines built from strings that
// stress the escaper and checked against the historical DOM decoder, number
// conversion is checked bit for bit against strtod, and every JSON writer is
// checked to emit documents the strict reader accepts when names carry
// control characters.

#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "json_reference.hpp"
#include "lint/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
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

// ---------------------------------------------------------------------------
// Single-pass decoding against the historical DOM decoder

/// Every member name a journal line can hold, top level and probes.
const std::vector<std::string> kJournalKeys = {
    "index", "fault", "outcome", "attempts", "error", "wall_s", "digital_waves",
    "analog_steps", "checkpoint_fs", "resim_fs", "first_output_error_fs",
    "last_output_error_end_fs", "total_output_error_fs", "max_analog_deviation_v",
    "analog_time_outside_tol_s", "erred_signals", "corrupted_state", "collapsed_from",
    "batch_lane", "forensic", "probes", "digital_events", "delta_cycles", "min_dt_s",
};

/// Number tokens at the edges of the conversion rules: the +-2^53 integer
/// bound, -0, overflow, underflow, the 15-digit exact path and 16-20 digit
/// runs that need strtod's rounding.
const std::vector<std::string> kEdgeNumbers = {
    "9007199254740992", "9007199254740993", "-9007199254740992", "-9007199254740993",
    "-0", "0", "-0.0", "0e0", "1e400", "-1e400", "1e-400", "4.9e-324", "2.5e-324",
    "999999999999999", "-999999999999999", "1000000000000000", "9999999999999999",
    "12345678901234567", "123456789012345678", "1234567890123456789",
    "18446744073709551615", "18446744073709551616", "2147483647", "2147483648",
    "4294967295", "4294967296", "1E2", "1e+2", "1.0", "0.1", "17.000000000000000001",
};

std::string digitRun(Rng& rng, std::size_t n)
{
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        out += static_cast<char>('0' + rng.below(10));
    }
    return out;
}

/// A random token in the RFC 8259 number grammar.
std::string randomNumberToken(Rng& rng)
{
    std::string t = rng.chance(0.3) ? "-" : "";
    if (rng.chance(0.15)) {
        t += '0';
    } else {
        t += static_cast<char>('1' + rng.below(9));
        t += digitRun(rng, rng.below(20)); // 1-20 integer digits
    }
    if (rng.chance(0.3)) {
        t += '.' + digitRun(rng, 1 + rng.below(20));
    }
    if (rng.chance(0.3)) {
        t += rng.chance(0.5) ? 'e' : 'E';
        if (rng.chance(0.6)) {
            t += rng.chance(0.5) ? '+' : '-';
        }
        t += digitRun(rng, 1 + rng.below(3));
    }
    return t;
}

/// Containers nested @p depth deep (arrays and objects mixed), innermost
/// holding a scalar or nothing.
std::string nested(Rng& rng, int depth)
{
    std::string open;
    std::string close;
    for (int i = 0; i < depth; ++i) {
        if (rng.chance(0.5)) {
            open += "[";
            close.insert(0, "]");
        } else {
            open += "{\"k\": ";
            close.insert(0, "}");
        }
    }
    // An object level needs a value; an array level may stay empty.
    const bool needsValue = !open.empty() && open.back() == ' ';
    return open + (needsValue || rng.chance(0.5) ? "\"v\\u00e9\"" : "") + close;
}

/// One seeded mutation of @p line.
std::string mutate(Rng& rng, std::string line)
{
    static const std::string kBytes = "{}[]\",:\\ 0123456789eE.+-tfnu\t\n\x01\x7f\xc2";
    const std::size_t at = line.empty() ? 0 : rng.below(line.size() + 1);
    const std::string& key = kJournalKeys[rng.below(kJournalKeys.size())];
    const std::size_t last = line.rfind('}');
    switch (rng.below(7)) {
    case 0: // delete a byte
        if (!line.empty()) {
            line.erase(rng.below(line.size()), 1);
        }
        return line;
    case 1: // insert a byte
        return line.insert(at, 1, kBytes[rng.below(kBytes.size())]);
    case 2: { // duplicate a span in place
        const std::size_t len = 1 + rng.below(12);
        return line.insert(at, line.substr(at, len));
    }
    case 3: { // a later duplicate key, usually of the wrong type
        static const std::vector<std::string> kValues = {
            "\"x\"", "true", "null", "[]", "{}", "-1", "1.5", "1e300", "[\"a\", 1]", "7",
        };
        if (last == std::string::npos) {
            return line;
        }
        return line.insert(last, ", \"" + key + "\": " + kValues[rng.below(kValues.size())]);
    }
    case 4: { // an unknown member holding containers around the depth bound
        const int depth = rng.chance(0.5) ? static_cast<int>(rng.range(60, 68))
                                          : static_cast<int>(rng.range(0, 4));
        const std::string member = "\"zz\": " + nested(rng, depth);
        const std::size_t open = line.find('{');
        if (open != std::string::npos && rng.chance(0.5)) {
            return line.insert(open + 1, member + ", ");
        }
        return last == std::string::npos ? line : line.insert(last, ", " + member);
    }
    default: { // replace a member's number with an edge or random token
        std::vector<std::size_t> starts;
        for (std::size_t i = line.find("\": "); i != std::string::npos;
             i = line.find("\": ", i + 1)) {
            const char c = i + 3 < line.size() ? line[i + 3] : '\0';
            if ((c >= '0' && c <= '9') || c == '-') {
                starts.push_back(i + 3);
            }
        }
        if (starts.empty()) {
            return line;
        }
        const std::size_t from = starts[rng.below(starts.size())];
        const std::size_t to = line.find_first_of(",}", from);
        const std::string token = rng.chance(0.5) ? kEdgeNumbers[rng.below(kEdgeNumbers.size())]
                                                  : randomNumberToken(rng);
        return line.replace(from, to == std::string::npos ? line.size() - from : to - from,
                            token);
    }
    }
}

std::uint64_t bitsOf(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/// Same type, same members in the same order, numbers bit for bit.
bool sameJson(const util::JsonValue& a, const util::JsonValue& b)
{
    if (a.type() != b.type()) {
        return false;
    }
    switch (a.type()) {
    case util::JsonType::Null:
        return true;
    case util::JsonType::Bool:
        return a.asBool() == b.asBool();
    case util::JsonType::Number:
        return bitsOf(a.asNumber()) == bitsOf(b.asNumber());
    case util::JsonType::String:
        return a.asString() == b.asString();
    case util::JsonType::Array:
        return std::equal(a.asArray().begin(), a.asArray().end(), b.asArray().begin(),
                          b.asArray().end(), sameJson);
    case util::JsonType::Object:
        return std::equal(a.asObject().begin(), a.asObject().end(), b.asObject().begin(),
                          b.asObject().end(), [](const auto& x, const auto& y) {
                              return x.first == y.first && sameJson(x.second, y.second);
                          });
    }
    return false;
}

/// Containers nested in @p v, @p v included.
int depthOf(const util::JsonValue& v)
{
    int inner = 0;
    if (v.isArray()) {
        for (const util::JsonValue& item : v.asArray()) {
            inner = std::max(inner, depthOf(item));
        }
    } else if (v.isObject()) {
        for (const auto& [key, member] : v.asObject()) {
            inner = std::max(inner, depthOf(member));
        }
    }
    return inner + (v.isArray() || v.isObject() ? 1 : 0);
}

/// parseJson and the historical parser agree on @p text: both accept it
/// with the same document, or both throw the same message. Returns the
/// historical parser's verdict: its error, or the accepted document's depth.
std::string expectDomAgrees(const std::string& text)
{
    std::string want;
    std::string got;
    util::JsonValue ref;
    util::JsonValue cand;
    try {
        ref = reference::parseJson(text);
    } catch (const std::runtime_error& e) {
        want = e.what();
    }
    try {
        cand = util::parseJson(text);
    } catch (const std::runtime_error& e) {
        got = e.what();
    }
    EXPECT_EQ(got, want) << text;
    if (want.empty() && got.empty()) {
        EXPECT_TRUE(sameJson(ref, cand)) << text;
    }
    return want.empty() ? "depth " + std::to_string(depthOf(ref)) : want;
}

/// The single-pass decoder and the historical one agree on @p line: both
/// reject it, or both accept it into entries that re-render identically.
void expectDecodeAgrees(const std::string& line)
{
    const auto want = reference::parseLine(line);
    const auto got = CampaignJournal::parseLine(line);
    ASSERT_EQ(got.has_value(), want.has_value()) << line;
    if (!want) {
        return;
    }
    EXPECT_EQ(got->index, want->index);
    EXPECT_EQ(got->faultDescription, want->faultDescription);
    EXPECT_EQ(got->result.diagnostics.fromJournal, want->result.diagnostics.fromJournal);
    const bool probes = want->result.diagnostics.probes.valid;
    EXPECT_EQ(got->result.diagnostics.probes.valid, probes);
    // entryToJson rounds doubles; compare their bits too.
    const auto doubles = [](const RunResult& r) {
        const obs::ProbeSnapshot& p = r.diagnostics.probes;
        return std::vector<std::uint64_t>{
            bitsOf(r.diagnostics.wallSeconds), bitsOf(r.maxAnalogDeviation),
            bitsOf(r.analogTimeOutsideTol), bitsOf(p.minAcceptedDt), bitsOf(p.lastAcceptedDt)};
    };
    EXPECT_EQ(doubles(got->result), doubles(want->result)) << line;
    // The entry holds a description, not a FaultSpec: render both with one.
    RunResult a = got->result;
    RunResult b = want->result;
    a.fault = b.fault = fault::BitFlipFault{"dut/r", 0, kMicrosecond};
    EXPECT_EQ(CampaignJournal::entryToJson(got->index, a, probes),
              CampaignJournal::entryToJson(want->index, b, probes))
        << line;
}

TEST(JournalDecode, MatchesDomReference)
{
    const std::vector<JournalLine> lines = nastyLines();
    std::vector<std::string> valid;
    for (const JournalLine& l : lines) {
        valid.push_back(l.text);
    }
    const std::vector<std::string> corrupt = corruptLines(lines);
    std::vector<std::string> all = valid;
    all.insert(all.end(), corrupt.begin(), corrupt.end());
    for (const std::string& line : all) {
        expectDecodeAgrees(line);
        expectDomAgrees(line);
    }

    Rng rng(0x5EED'2026);
    std::size_t accepted = 0;
    std::size_t tooDeep = 0;  // past the depth bound
    std::size_t atBound = 0;  // accepted with containers 60+ deep
    constexpr int kCases = 12000;
    for (int n = 0; n < kCases; ++n) {
        const std::vector<std::string>& seeds = rng.chance(0.75) ? valid : corrupt;
        std::string line = seeds[rng.below(seeds.size())];
        const int edits = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < edits; ++k) {
            line = mutate(rng, line);
        }
        expectDecodeAgrees(line);
        const std::string dom = expectDomAgrees(line);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
        accepted += CampaignJournal::parseLine(line).has_value() ? 1 : 0;
        tooDeep += dom.find("nesting too deep") != std::string::npos ? 1 : 0;
        atBound += dom.rfind("depth ", 0) == 0 && std::stoi(dom.substr(6)) >= 60 ? 1 : 0;
    }
    // The mutations must exercise both verdicts and both sides of the bound.
    EXPECT_GT(accepted, static_cast<std::size_t>(kCases / 20));
    EXPECT_LT(accepted, static_cast<std::size_t>(kCases * 19 / 20));
    EXPECT_GT(tooDeep, 50u);
    EXPECT_GT(atBound, 50u);
}

TEST(JsonNumber, MatchesStrtod)
{
    Rng rng(0xD1617);
    std::vector<std::string> tokens = kEdgeNumbers;
    tokens.push_back("1" + std::string(100, '0')); // longer than any stack copy
    tokens.push_back("0." + std::string(80, '0') + "1e-300");
    for (int i = 0; i < 20000; ++i) {
        tokens.push_back(randomNumberToken(rng));
    }
    for (const std::string& token : tokens) {
        char* end = nullptr;
        const double want = std::strtod(token.c_str(), &end);
        ASSERT_EQ(end, token.c_str() + token.size()) << "not one token: " << token;

        // An exact-size heap copy without a NUL: reading past the token's
        // end is out of bounds (and trips AddressSanitizer).
        const auto exact = std::make_unique<char[]>(token.size());
        std::memcpy(exact.get(), token.data(), token.size());
        util::JsonReader in(std::string_view(exact.get(), token.size()));
        EXPECT_EQ(bitsOf(in.readNumber()), bitsOf(want)) << token;
        EXPECT_NO_THROW(in.finish()) << token;

        // A view that stops mid-buffer: digits after it must not count.
        const std::string padded = token + "987e5";
        util::JsonReader view(std::string_view(padded).substr(0, token.size()));
        EXPECT_EQ(bitsOf(view.readNumber()), bitsOf(want)) << token;
    }
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
