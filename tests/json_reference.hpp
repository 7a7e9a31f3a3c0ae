#pragma once
// Reference journal decoder for differential tests: the DOM parser and the
// JsonFields typed reads that decoded journal lines before the single-pass
// util::JsonReader, kept verbatim. Nothing outside the tests uses it.

#include "core/journal.hpp"
#include "util/json.hpp"

#include <optional>
#include <string>

namespace gfi::reference {

/// The historical strict recursive-descent parser: same grammar, same
/// "json: ... at byte N" errors.
[[nodiscard]] util::JsonValue parseJson(const std::string& text);

/// The historical CampaignJournal::parseLine: a DOM parse, then one linear
/// member scan per field.
[[nodiscard]] std::optional<campaign::JournalEntry> parseLine(const std::string& line);

} // namespace gfi::reference
