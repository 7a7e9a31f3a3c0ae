#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gfi::util {

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

} // namespace

JsonValue parseJson(const std::string& text)
{
    return Parser(text).parseDocument();
}

std::optional<JsonValue> parseJsonObject(const std::string& text)
{
    try {
        JsonValue v = parseJson(text);
        if (v.isObject()) {
            return v;
        }
    } catch (const std::runtime_error&) {
    }
    return std::nullopt;
}

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

std::string jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace gfi::util
