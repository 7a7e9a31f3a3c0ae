#include "lint/diagnostic.hpp"

#include "util/json.hpp"
#include "util/table.hpp"

namespace gfi::lint {

const char* toString(Severity s)
{
    switch (s) {
    case Severity::Info:
        return "info";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "?";
}

void Report::add(std::string rule, Severity severity, std::string path, std::string message,
                 std::string hint)
{
    diags_.push_back(Diagnostic{std::move(rule), severity, std::move(path),
                                std::move(message), std::move(hint)});
}

void Report::merge(const Report& other)
{
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::size_t Report::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic& d : diags_) {
        n += d.severity == severity ? 1 : 0;
    }
    return n;
}

bool Report::hasRule(const std::string& rule) const
{
    for (const Diagnostic& d : diags_) {
        if (d.rule == rule) {
            return true;
        }
    }
    return false;
}

std::vector<Diagnostic> Report::byRule(const std::string& rule) const
{
    std::vector<Diagnostic> out;
    for (const Diagnostic& d : diags_) {
        if (d.rule == rule) {
            out.push_back(d);
        }
    }
    return out;
}

std::string Report::table() const
{
    TextTable t;
    t.setHeader({"rule", "severity", "path", "message", "hint"});
    for (const Diagnostic& d : diags_) {
        t.addRow({d.rule, toString(d.severity), d.path, d.message,
                  d.hint.empty() ? "-" : d.hint});
    }
    t.addSeparator();
    t.addRow({"total", summary(), "", "", ""});
    return t.str();
}

std::string Report::json() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic& d = diags_[i];
        out += i == 0 ? "\n" : ",\n";
        out += "  {\"rule\": \"" + util::jsonEscape(d.rule) + "\", ";
        out += "\"severity\": \"" + std::string(toString(d.severity)) + "\", ";
        out += "\"path\": \"" + util::jsonEscape(d.path) + "\", ";
        out += "\"message\": \"" + util::jsonEscape(d.message) + "\", ";
        out += "\"hint\": \"" + util::jsonEscape(d.hint) + "\"}";
    }
    out += diags_.empty() ? "]" : "\n]";
    return out;
}

std::string Report::summary() const
{
    const std::size_t e = count(Severity::Error);
    const std::size_t w = count(Severity::Warning);
    const std::size_t i = count(Severity::Info);
    auto plural = [](std::size_t n, const char* word) {
        return std::to_string(n) + " " + word + (n == 1 ? "" : "s");
    };
    return plural(e, "error") + ", " + plural(w, "warning") + ", " + plural(i, "info");
}

} // namespace gfi::lint
