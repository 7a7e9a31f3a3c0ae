#pragma once
// The repo's one JSON codec: a minimal value model, a strict
// recursive-descent parser and the string escaper every writer uses.
//
// The reader covers all JSON types, the RFC 8259 number grammar, standard
// escapes including \uXXXX (encoded as UTF-8), a nesting-depth bound and
// order-preserving objects (so round-tripped key order is inspectable). It
// throws std::runtime_error with a byte offset on malformed input. Campaign
// journals, golden-store entries, bench results and traces are all read back
// through it.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gfi::util {

class JsonValue;

/// Object member list, document order. Duplicate keys are kept (lookup
/// returns the first), matching how lenient parsers treat them.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

/// One parsed JSON value.
class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

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
/// else after the value). Throws std::runtime_error on malformed input.
[[nodiscard]] JsonValue parseJson(const std::string& text);

/// @p text parsed as one complete JSON object; std::nullopt when it is
/// malformed, truncated or another JSON type.
[[nodiscard]] std::optional<JsonValue> parseJsonObject(const std::string& text);

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

/// Escapes @p s for a JSON string literal: `"`, `\`, `\n`, `\t`, `\r` as
/// two-character escapes, every other byte below 0x20 as `\u00xx`, all other
/// bytes (UTF-8 included) verbatim.
[[nodiscard]] std::string jsonEscape(const std::string& s);

} // namespace gfi::util
