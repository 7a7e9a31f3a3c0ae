// Verbatim copies of the DOM parser, JsonFields and the journal line decoder
// as they were before util::JsonReader; see json_reference.hpp.

#include "json_reference.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

namespace gfi::reference {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;
using campaign::JournalEntry;
using campaign::RunDiagnostics;
using campaign::RunResult;

namespace {

constexpr int kMaxDepth = 64; // bounds recursion on hostile input

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parseDocument()
    {
        skipWs();
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after the JSON value");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const
    {
        throw std::runtime_error("json: " + what + " at byte " + std::to_string(pos_));
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool consumeLiteral(const char* lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0') {
            ++n;
        }
        if (text_.compare(pos_, n, lit) != 0) {
            return false;
        }
        pos_ += n;
        return true;
    }

    /// Appends @p cp as UTF-8.
    static void appendUtf8(std::string& out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    unsigned parseHex4()
    {
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            cp <<= 4;
            if (c >= '0' && c <= '9') {
                cp |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                cp |= static_cast<unsigned>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                cp |= static_cast<unsigned>(c - 'A' + 10);
            } else {
                fail("bad \\u escape");
            }
            ++pos_;
        }
        return cp;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the low half.
                    if (peek() == '\\' && pos_ + 1 < text_.size() &&
                        text_[pos_ + 1] == 'u') {
                        pos_ += 2;
                        const unsigned lo = parseHex4();
                        if (lo < 0xDC00 || lo > 0xDFFF) {
                            fail("bad surrogate pair");
                        }
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    } else {
                        fail("lone high surrogate");
                    }
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    /// Consumes one or more digits; fails when there is none.
    void digits()
    {
        if (std::isdigit(static_cast<unsigned char>(peek())) == 0) {
            fail("bad number");
        }
        while (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
            ++pos_;
        }
    }

    /// RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        if (peek() == '0') {
            ++pos_;
        } else {
            digits();
        }
        if (peek() == '.') {
            ++pos_;
            digits();
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') {
                ++pos_;
            }
            digits();
        }
        return JsonValue(std::strtod(text_.c_str() + start, nullptr));
    }

    JsonValue parseValue(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
        }
        skipWs();
        switch (peek()) {
        case '{': {
            ++pos_;
            JsonObject obj;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return JsonValue(std::move(obj));
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                obj.emplace_back(std::move(key), parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return JsonValue(std::move(obj));
            }
        }
        case '[': {
            ++pos_;
            JsonArray arr;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return JsonValue(std::move(arr));
            }
            while (true) {
                arr.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return JsonValue(std::move(arr));
            }
        }
        case '"':
            return JsonValue(parseString());
        case 't':
            if (consumeLiteral("true")) {
                return JsonValue(true);
            }
            fail("bad literal");
        case 'f':
            if (consumeLiteral("false")) {
                return JsonValue(false);
            }
            fail("bad literal");
        case 'n':
            if (consumeLiteral("null")) {
                return JsonValue();
            }
            fail("bad literal");
        default:
            return parseNumber();
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

std::optional<JsonValue> parseJsonObject(const std::string& text)
{
    try {
        JsonValue v = Parser(text).parseDocument();
        if (v.isObject()) {
            return v;
        }
    } catch (const std::runtime_error&) {
    }
    return std::nullopt;
}

/// Typed member reads over one JSON object with a fixed schema (journal
/// lines, golden-store entries). A member present with the wrong type or out
/// of range, or a required member that is missing, clears ok(); an absent
/// optional member leaves its destination untouched.
class JsonFields {
public:
    explicit JsonFields(const JsonValue& obj) : obj_(obj) {}

    [[nodiscard]] bool ok() const noexcept { return ok_; }

    void text(const std::string& key, std::string& out, bool required = false);
    void texts(const std::string& key, std::vector<std::string>& out);
    void number(const std::string& key, double& out);

    /// An integer that fits @p T: an integral number no larger in magnitude
    /// than 2^53, so the double it was read into holds it exactly.
    template <typename T>
    void integer(const std::string& key, T& out, bool required = false,
                 long long lo = std::numeric_limits<long long>::min())
    {
        constexpr auto hi = static_cast<long long>(std::min<unsigned long long>(
            std::numeric_limits<T>::max(), std::numeric_limits<long long>::max()));
        lo = std::max<long long>(lo, std::numeric_limits<T>::min());
        if (const auto i = readInteger(key, lo, hi, required)) {
            out = static_cast<T>(*i);
        }
    }

    /// A counter: a non-negative integer that fits @p T.
    template <typename T>
    void count(const std::string& key, T& out, bool required = false)
    {
        integer(key, out, required, 0);
    }

private:
    const JsonValue* member(const std::string& key, bool required);
    std::optional<long long> readInteger(const std::string& key, long long lo, long long hi,
                                         bool required);

    /// Records a failed check; returns @p valid.
    bool check(bool valid)
    {
        ok_ = ok_ && valid;
        return valid;
    }

    const JsonValue& obj_;
    bool ok_ = true;
};

const JsonValue* JsonFields::member(const std::string& key, bool required)
{
    const JsonValue* v = obj_.find(key);
    check(v != nullptr || !required);
    return v;
}

void JsonFields::text(const std::string& key, std::string& out, bool required)
{
    const JsonValue* v = member(key, required);
    if (v != nullptr && check(v->isString())) {
        out = v->asString();
    }
}

void JsonFields::texts(const std::string& key, std::vector<std::string>& out)
{
    const JsonValue* v = member(key, false);
    if (v == nullptr || !check(v->isArray())) {
        return;
    }
    out.clear();
    for (const JsonValue& item : v->asArray()) {
        if (check(item.isString())) {
            out.push_back(item.asString());
        }
    }
}

void JsonFields::number(const std::string& key, double& out)
{
    const JsonValue* v = member(key, false);
    if (v != nullptr && check(v->isNumber())) {
        out = v->asNumber();
    }
}

std::optional<long long> JsonFields::readInteger(const std::string& key, long long lo,
                                                 long long hi, bool required)
{
    constexpr double kMaxExact = 9007199254740992.0; // 2^53
    const JsonValue* v = member(key, required);
    if (v == nullptr || !check(v->isNumber())) {
        return std::nullopt;
    }
    const double d = v->asNumber();
    // Written so that NaN fails the range test too.
    if (!check(d >= -kMaxExact && d <= kMaxExact && d == std::trunc(d))) {
        return std::nullopt;
    }
    const auto i = static_cast<long long>(d);
    if (!check(i >= lo && i <= hi)) {
        return std::nullopt;
    }
    return i;
}

} // namespace

JsonValue parseJson(const std::string& text)
{
    return Parser(text).parseDocument();
}

std::optional<JournalEntry> parseLine(const std::string& line)
{
    // Only one complete JSON object is trusted: a line torn by a killed
    // campaign may still hold index/fault/outcome but miss the metrics, and
    // must be re-simulated rather than restored with defaulted fields.
    const std::optional<util::JsonValue> doc = parseJsonObject(line);
    if (!doc) {
        return std::nullopt;
    }
    JournalEntry e;
    std::string outcomeName;
    RunResult& r = e.result;
    RunDiagnostics& d = r.diagnostics;
    JsonFields f(*doc);
    f.count("index", e.index, true);
    f.text("fault", e.faultDescription, true);
    f.text("outcome", outcomeName, true);
    f.count("attempts", d.attempts);
    f.text("error", d.error);
    f.number("wall_s", d.wallSeconds);
    f.count("digital_waves", d.digitalWaves);
    f.count("analog_steps", d.analogSteps);
    f.integer("checkpoint_fs", d.checkpointTime);
    f.integer("resim_fs", d.resimulatedTime);
    f.integer("first_output_error_fs", r.firstOutputError);
    f.integer("last_output_error_end_fs", r.lastOutputErrorEnd);
    f.integer("total_output_error_fs", r.totalOutputErrorTime);
    f.number("max_analog_deviation_v", r.maxAnalogDeviation);
    f.number("analog_time_outside_tol_s", r.analogTimeOutsideTol);
    f.texts("erred_signals", r.erredSignals);
    f.texts("corrupted_state", r.corruptedState);
    f.text("collapsed_from", d.collapsedFrom);
    f.count("batch_lane", d.batchLane);
    f.text("forensic", d.forensic);
    if (!f.ok() || !outcomeFromString(outcomeName, r.outcome)) {
        return std::nullopt;
    }

    // Optional probes object (lines written with a telemetry sink attached).
    if (const util::JsonValue* probes = doc->find("probes")) {
        if (!probes->isObject()) {
            return std::nullopt;
        }
        obs::ProbeSnapshot& p = d.probes;
        JsonFields pf(*probes);
        pf.count("digital_events", p.digitalEvents);
        pf.count("delta_cycles", p.deltaCycles);
        pf.count("queue_high_water", p.queueHighWater);
        pf.count("pending_events", p.pendingEvents);
        pf.count("analog_accepted", p.analogAcceptedSteps);
        pf.count("analog_rejected", p.analogRejectedSteps);
        pf.count("newton_iterations", p.newtonIterations);
        pf.count("companion_rebuilds", p.companionRebuilds);
        pf.number("min_dt_s", p.minAcceptedDt);
        pf.number("last_dt_s", p.lastAcceptedDt);
        pf.count("atod_crossings", p.atodCrossings);
        pf.count("dtoa_events", p.dtoaEvents);
        if (!pf.ok()) {
            return std::nullopt;
        }
        p.valid = true;
    }
    d.fromJournal = true;
    return e;
}

} // namespace gfi::reference
