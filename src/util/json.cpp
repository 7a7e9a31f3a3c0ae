#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gfi::util {

namespace {

constexpr int kMaxDepth = 64; // bounds recursion on hostile input

/// Integer tokens of up to this many digits are below 2^53, so they convert
/// exactly without strtod.
constexpr std::size_t kExactDigits = 15;

bool isDigit(char c) noexcept
{
    return c >= '0' && c <= '9';
}

/// Appends @p cp as UTF-8.
void appendUtf8(std::string& out, unsigned cp)
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

/// strtod on @p token alone, through a NUL-terminated copy (short tokens,
/// the common case, fit the string's inline buffer).
double strtodToken(std::string_view token)
{
    const std::string copy(token);
    return std::strtod(copy.c_str(), nullptr);
}

/// The DOM value starting at the reader's position.
JsonValue buildValue(JsonReader& in)
{
    switch (in.peek()) {
    case JsonType::Object: {
        JsonObject obj;
        in.enterObject();
        std::string_view key;
        while (in.nextMember(key)) {
            std::string name(key); // copied first: reading the value reuses the key buffer
            JsonValue value = buildValue(in);
            obj.emplace_back(std::move(name), std::move(value));
        }
        return JsonValue(std::move(obj));
    }
    case JsonType::Array: {
        JsonArray arr;
        in.enterArray();
        while (in.nextItem()) {
            arr.push_back(buildValue(in));
        }
        return JsonValue(std::move(arr));
    }
    case JsonType::String: {
        std::string text;
        in.readString(text);
        return JsonValue(std::move(text));
    }
    case JsonType::Bool:
        return JsonValue(in.readBool());
    case JsonType::Null:
        in.readNull();
        return JsonValue();
    case JsonType::Number:
        break;
    }
    return JsonValue(in.readNumber());
}

} // namespace

void JsonReader::fail(const std::string& what) const
{
    throw std::runtime_error("json: " + what + " at byte " + std::to_string(pos_));
}

void JsonReader::skipWs() noexcept
{
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
        ++pos_;
    }
}

void JsonReader::beginValue()
{
    if (depth_ > kMaxDepth) {
        fail("nesting too deep");
    }
    skipWs();
}

void JsonReader::expect(char c)
{
    if (cur() != c) {
        fail(std::string("expected '") + c + "'");
    }
    ++pos_;
}

void JsonReader::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word) {
        fail("bad literal");
    }
    pos_ += word.size();
}

JsonType JsonReader::peek()
{
    beginValue();
    switch (cur()) {
    case '{':
        return JsonType::Object;
    case '[':
        return JsonType::Array;
    case '"':
        return JsonType::String;
    case 't':
    case 'f':
        return JsonType::Bool;
    case 'n':
        return JsonType::Null;
    default:
        return JsonType::Number;
    }
}

void JsonReader::readNull()
{
    beginValue();
    literal("null");
}

bool JsonReader::readBool()
{
    beginValue();
    if (cur() == 't') {
        literal("true");
        return true;
    }
    literal("false");
    return false;
}

std::size_t JsonReader::plainEnd(std::size_t from) const noexcept
{
    while (from < text_.size() && text_[from] != '"' && text_[from] != '\\' &&
           static_cast<unsigned char>(text_[from]) >= 0x20) {
        ++from;
    }
    return from;
}

unsigned JsonReader::hex4()
{
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
        const char c = cur();
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

void JsonReader::scanString(std::string* out)
{
    expect('"');
    if (out != nullptr) {
        out->clear();
    }
    while (true) {
        // Plain bytes go over in one run.
        const std::size_t run = pos_;
        pos_ = plainEnd(pos_);
        if (out != nullptr) {
            out->append(text_.data() + run, pos_ - run);
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
        }
        const char c = text_[pos_++];
        if (c == '"') {
            return;
        }
        if (c != '\\') {
            fail("raw control character in string");
        }
        if (pos_ >= text_.size()) {
            fail("unterminated escape");
        }
        const char esc = text_[pos_++];
        char plain = '\0';
        switch (esc) {
        case '"':
        case '\\':
        case '/':
            plain = esc;
            break;
        case 'b':
            plain = '\b';
            break;
        case 'f':
            plain = '\f';
            break;
        case 'n':
            plain = '\n';
            break;
        case 'r':
            plain = '\r';
            break;
        case 't':
            plain = '\t';
            break;
        case 'u': {
            unsigned cp = hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {
                // High surrogate: require the low half.
                if (cur() == '\\' && pos_ + 1 < text_.size() && text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    const unsigned lo = hex4();
                    if (lo < 0xDC00 || lo > 0xDFFF) {
                        fail("bad surrogate pair");
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else {
                    fail("lone high surrogate");
                }
            }
            if (out != nullptr) {
                appendUtf8(*out, cp);
            }
            continue;
        }
        default:
            fail("unknown escape");
        }
        if (out != nullptr) {
            *out += plain;
        }
    }
}

void JsonReader::readString(std::string& out)
{
    beginValue();
    scanString(&out);
}

/// RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
/// Consumes one number token; true when it is a plain integer of at most
/// kExactDigits digits.
bool JsonReader::scanNumber()
{
    const auto digits = [this] {
        if (!isDigit(cur())) {
            fail("bad number");
        }
        while (isDigit(cur())) {
            ++pos_;
        }
    };
    if (cur() == '-') {
        ++pos_;
    }
    const std::size_t intStart = pos_;
    if (cur() == '0') {
        ++pos_;
    } else {
        digits();
    }
    bool plain = pos_ - intStart <= kExactDigits;
    if (cur() == '.') {
        ++pos_;
        digits();
        plain = false;
    }
    if (cur() == 'e' || cur() == 'E') {
        ++pos_;
        if (cur() == '+' || cur() == '-') {
            ++pos_;
        }
        digits();
        plain = false;
    }
    return plain;
}

double JsonReader::readNumber()
{
    beginValue();
    const std::size_t start = pos_;
    if (!scanNumber()) {
        return strtodToken(text_.substr(start, pos_ - start));
    }
    const bool negative = text_[start] == '-';
    std::uint64_t v = 0;
    for (std::size_t i = start + (negative ? 1 : 0); i < pos_; ++i) {
        v = v * 10 + static_cast<std::uint64_t>(text_[i] - '0');
    }
    const auto d = static_cast<double>(v); // exact: v < 10^15 < 2^53
    return negative ? -d : d;
}

void JsonReader::enterObject()
{
    beginValue();
    expect('{');
    ++depth_;
    fresh_ = true;
}

bool JsonReader::nextMember(std::string_view& key)
{
    skipWs();
    if (fresh_) {
        fresh_ = false;
        if (cur() == '}') {
            ++pos_;
            --depth_;
            return false;
        }
    } else if (cur() == ',') {
        ++pos_;
        skipWs();
    } else {
        expect('}');
        --depth_;
        return false;
    }
    // A key without escapes is viewed in place; one with escapes is decoded.
    const std::size_t quote = pos_;
    expect('"');
    const std::size_t end = plainEnd(pos_);
    if (end < text_.size() && text_[end] == '"') {
        key = text_.substr(pos_, end - pos_);
        pos_ = end + 1;
    } else {
        pos_ = quote;
        scanString(&key_);
        key = key_;
    }
    skipWs();
    expect(':');
    return true;
}

void JsonReader::enterArray()
{
    beginValue();
    expect('[');
    ++depth_;
    fresh_ = true;
}

bool JsonReader::nextItem()
{
    if (fresh_) {
        fresh_ = false;
        skipWs();
        if (cur() == ']') {
            ++pos_;
            --depth_;
            return false;
        }
        return true;
    }
    skipWs();
    if (cur() == ',') {
        ++pos_;
        return true;
    }
    expect(']');
    --depth_;
    return false;
}

void JsonReader::skip()
{
    std::string_view key;
    switch (peek()) {
    case JsonType::Object:
        enterObject();
        while (nextMember(key)) {
            skip();
        }
        return;
    case JsonType::Array:
        enterArray();
        while (nextItem()) {
            skip();
        }
        return;
    case JsonType::String:
        scanString(nullptr);
        return;
    case JsonType::Bool:
        (void)readBool();
        return;
    case JsonType::Null:
        readNull();
        return;
    case JsonType::Number:
        (void)scanNumber();
        return;
    }
}

void JsonReader::finish()
{
    skipWs();
    if (pos_ != text_.size()) {
        fail("trailing characters after the JSON value");
    }
}

bool JsonReader::readField(const JsonField& field)
{
    switch (field.kind) {
    case JsonField::Kind::Text:
        if (peek() != JsonType::String) {
            return false;
        }
        readString(*static_cast<std::string*>(field.out));
        return true;
    case JsonField::Kind::Texts: {
        if (peek() != JsonType::Array) {
            return false;
        }
        auto& out = *static_cast<std::vector<std::string>*>(field.out);
        out.clear();
        enterArray();
        while (nextItem()) {
            if (peek() != JsonType::String) {
                return false;
            }
            readString(out.emplace_back());
        }
        return true;
    }
    case JsonField::Kind::Number:
        if (peek() != JsonType::Number) {
            return false;
        }
        *static_cast<double*>(field.out) = readNumber();
        return true;
    case JsonField::Kind::Integer: {
        constexpr double kMaxExact = 9007199254740992.0; // 2^53
        if (peek() != JsonType::Number) {
            return false;
        }
        const double d = readNumber();
        // Written so that NaN fails the range test too.
        if (!(d >= -kMaxExact && d <= kMaxExact && d == std::trunc(d))) {
            return false;
        }
        const auto i = static_cast<long long>(d);
        if (i < field.lo || i > field.hi) {
            return false;
        }
        field.store(field.out, i);
        return true;
    }
    case JsonField::Kind::Object:
        if (!readObject(field.members)) {
            return false;
        }
        *static_cast<bool*>(field.out) = true;
        return true;
    }
    return false;
}

bool JsonReader::readObject(std::span<const JsonField> schema)
{
    if (schema.size() > 64) {
        throw std::logic_error("JsonReader::readObject: more than 64 fields");
    }
    if (peek() != JsonType::Object) {
        return false;
    }
    std::uint64_t seen = 0;
    std::size_t next = 0; // members usually come in schema order: try that slot first
    enterObject();
    std::string_view key;
    while (nextMember(key)) {
        std::size_t i = next < schema.size() && schema[next].key == key ? next : schema.size();
        for (std::size_t j = 0; i == schema.size() && j < schema.size(); ++j) {
            if (schema[j].key == key) {
                i = j;
            }
        }
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if (i == schema.size() || (seen & bit) != 0) {
            skip(); // unknown member or a later duplicate: the first occurrence wins
            continue;
        }
        seen |= bit;
        next = i + 1;
        if (!readField(schema[i])) {
            return false;
        }
    }
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].required && (seen & (std::uint64_t{1} << i)) == 0) {
            return false;
        }
    }
    return true;
}

JsonValue parseJson(std::string_view text)
{
    JsonReader in(text);
    JsonValue v = buildValue(in);
    in.finish();
    return v;
}

bool readJsonObject(std::string_view text, std::span<const JsonField> schema)
{
    try {
        JsonReader in(text);
        if (!in.readObject(schema)) {
            return false;
        }
        in.finish();
        return true;
    } catch (const std::runtime_error&) {
        return false;
    }
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
