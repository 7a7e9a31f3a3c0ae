#pragma once
// The repo's one JSON codec: a strict pull reader, a minimal value model
// built on it, and the string escaper every writer uses.
//
// JsonReader owns the grammar: all JSON types, the RFC 8259 number grammar,
// standard escapes including \uXXXX (encoded as UTF-8), no raw control
// characters in strings and a nesting-depth bound. It throws
// std::runtime_error "json: <what> at byte N" on malformed input. Callers
// either pull values one at a time -- fixed-schema objects (journal lines,
// golden-store entries) decode straight into their structs through
// readObject() -- or build a DOM with parseJson(), whose objects keep
// document order (so round-tripped key order is inspectable). Bench results
// and traces are read back through the DOM.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfi::util {

enum class JsonType { Null, Bool, Number, String, Array, Object };

/// One member of a fixed-schema object, for JsonReader::readObject(). A
/// member present with the wrong type or out of range, or a required member
/// that is missing, fails the read; an absent optional member leaves its
/// destination untouched. Build fields with the factories below; each keeps
/// a pointer to its destination.
struct JsonField {
    enum class Kind : std::uint8_t { Text, Texts, Number, Integer, Object };

    std::string_view key;
    Kind kind = Kind::Text;
    bool required = false;
    void* out = nullptr;                       ///< destination (Object: set on success)
    long long lo = 0;                          ///< Integer range, inclusive
    long long hi = 0;
    void (*store)(void*, long long) = nullptr; ///< Integer: writes the value into *out
    std::span<const JsonField> members = {};   ///< Object: the nested schema

    static JsonField text(std::string_view key, std::string& out, bool required = false)
    {
        return {.key = key, .kind = Kind::Text, .required = required, .out = &out};
    }

    /// An array of strings; replaces @p out when present.
    static JsonField texts(std::string_view key, std::vector<std::string>& out)
    {
        return {.key = key, .kind = Kind::Texts, .out = &out};
    }

    static JsonField number(std::string_view key, double& out)
    {
        return {.key = key, .kind = Kind::Number, .out = &out};
    }

    /// An integer that fits @p T: an integral number no larger in magnitude
    /// than 2^53, so the double it was read into holds it exactly.
    template <typename T>
    static JsonField integer(std::string_view key, T& out, bool required = false,
                             long long lo = std::numeric_limits<long long>::min())
    {
        constexpr auto hi = static_cast<long long>(std::min<unsigned long long>(
            std::numeric_limits<T>::max(), std::numeric_limits<long long>::max()));
        lo = std::max<long long>(lo, std::numeric_limits<T>::min());
        return {.key = key,
                .kind = Kind::Integer,
                .required = required,
                .out = &out,
                .lo = lo,
                .hi = hi,
                .store = [](void* dst, long long v) {
                    *static_cast<T*>(dst) = static_cast<T>(v);
                }};
    }

    /// A counter: a non-negative integer that fits @p T.
    template <typename T>
    static JsonField count(std::string_view key, T& out, bool required = false)
    {
        return integer(key, out, required, 0);
    }

    /// A nested object read with @p schema; @p present is set once it has
    /// been read whole.
    static JsonField object(std::string_view key, std::span<const JsonField> schema,
                            bool& present)
    {
        return {.key = key, .kind = Kind::Object, .out = &present, .members = schema};
    }
};

/// Strict pull reader over one JSON document held in @p text, which must
/// outlive the reader. Every read consumes one value (or one container step)
/// and throws std::runtime_error on malformed input.
class JsonReader {
public:
    explicit JsonReader(std::string_view text) noexcept : text_(text) {}

    /// The type of the next value, judged by its first byte: anything that
    /// is not a string, container or literal is read as a number.
    [[nodiscard]] JsonType peek();

    void readNull();
    [[nodiscard]] bool readBool();
    /// Converts the token to exactly the double strtod gives for it.
    [[nodiscard]] double readNumber();
    /// Reads a string into @p out, replacing its contents.
    void readString(std::string& out);

    /// Object iteration: enterObject(), then nextMember() until it returns
    /// false, reading (or skipping) one value after each true. @p key views
    /// the decoded key and is valid until the next key is read.
    void enterObject();
    [[nodiscard]] bool nextMember(std::string_view& key);
    /// Array iteration: enterArray(), then nextItem() until it returns false,
    /// reading one value after each true.
    void enterArray();
    [[nodiscard]] bool nextItem();

    /// Requires that only whitespace follows.
    void finish();

    /// Reads the next value as an object with the fixed @p schema (at most
    /// 64 fields). The first occurrence of a key wins; later duplicates and
    /// unknown members are skipped. Returns false, with the value partly
    /// consumed, when it is not an object or breaks the schema.
    [[nodiscard]] bool readObject(std::span<const JsonField> schema);

private:
    /// Consumes the next value, grammar-checked but not decoded.
    void skip();
    [[noreturn]] void fail(const std::string& what) const;
    char cur() const noexcept { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    void skipWs() noexcept;
    void beginValue();
    void expect(char c);
    void literal(std::string_view word);
    /// End of the run of string bytes from @p from that need no decoding.
    std::size_t plainEnd(std::size_t from) const noexcept;
    /// Reads a string, decoded into @p out unless it is null.
    void scanString(std::string* out);
    bool scanNumber();
    unsigned hex4();
    bool readField(const JsonField& field);

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;      ///< containers open around the read position
    bool fresh_ = false; ///< the container just entered has had no step yet
    std::string key_;    ///< decoded key when it holds escapes
};

class JsonValue;

/// Object member list, document order. Duplicate keys are kept (lookup
/// returns the first), matching how lenient parsers treat them.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

/// One parsed JSON value.
class JsonValue {
public:
    using Type = JsonType;

    JsonValue() = default;
    explicit JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    explicit JsonValue(double d) : type_(Type::Number), num_(d) {}
    explicit JsonValue(std::string s) : type_(Type::String), str_(std::move(s)) {}
    explicit JsonValue(JsonArray a)
        : type_(Type::Array), arr_(std::make_shared<JsonArray>(std::move(a)))
    {
    }
    explicit JsonValue(JsonObject o)
        : type_(Type::Object), obj_(std::make_shared<JsonObject>(std::move(o)))
    {
    }

    [[nodiscard]] Type type() const noexcept { return type_; }
    [[nodiscard]] bool isNull() const noexcept { return type_ == Type::Null; }
    [[nodiscard]] bool isBool() const noexcept { return type_ == Type::Bool; }
    [[nodiscard]] bool isNumber() const noexcept { return type_ == Type::Number; }
    [[nodiscard]] bool isString() const noexcept { return type_ == Type::String; }
    [[nodiscard]] bool isArray() const noexcept { return type_ == Type::Array; }
    [[nodiscard]] bool isObject() const noexcept { return type_ == Type::Object; }

    [[nodiscard]] bool asBool() const { return require(Type::Bool), bool_; }
    [[nodiscard]] double asNumber() const { return require(Type::Number), num_; }
    [[nodiscard]] const std::string& asString() const
    {
        return require(Type::String), str_;
    }
    [[nodiscard]] const JsonArray& asArray() const { return require(Type::Array), *arr_; }
    [[nodiscard]] const JsonObject& asObject() const
    {
        return require(Type::Object), *obj_;
    }

    /// First member named @p key, or nullptr (also nullptr on non-objects).
    [[nodiscard]] const JsonValue* find(const std::string& key) const
    {
        if (type_ != Type::Object) {
            return nullptr;
        }
        for (const auto& [k, v] : *obj_) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }

private:
    void require(Type t) const
    {
        if (type_ != t) {
            throw std::runtime_error("JsonValue: wrong type access");
        }
    }

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::shared_ptr<JsonArray> arr_;  ///< shared: JsonValue stays copyable
    std::shared_ptr<JsonObject> obj_;
};

/// Parses one JSON document (leading/trailing whitespace allowed, nothing
/// else after the value) through JsonReader. Throws std::runtime_error on
/// malformed input.
[[nodiscard]] JsonValue parseJson(std::string_view text);

/// Decodes @p text, one complete JSON object, with the fixed @p schema
/// (JsonReader::readObject). False when the text is malformed, another JSON
/// type or breaks the schema; the destinations may then be partly written.
[[nodiscard]] bool readJsonObject(std::string_view text, std::span<const JsonField> schema);

/// Escapes @p s for a JSON string literal: `"`, `\`, `\n`, `\t`, `\r` as
/// two-character escapes, every other byte below 0x20 as `\u00xx`, all other
/// bytes (UTF-8 included) verbatim.
[[nodiscard]] std::string jsonEscape(const std::string& s);

} // namespace gfi::util
