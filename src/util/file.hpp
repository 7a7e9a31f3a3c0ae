#pragma once
// Whole-file reads and writes that report every failure.

#include <string>
#include <string_view>

namespace gfi::util {

/// The bytes of @p path. Throws std::runtime_error "<what>: cannot read
/// <path>" when fopen fails (a missing file included) and "<what>: read
/// failed on <path>" when fread reports an error, as it does for a
/// directory: an unchecked read would hand the caller an empty file.
[[nodiscard]] std::string readFileOrThrow(const std::string& path, std::string_view what);

/// Writes @p body to @p path, replacing the file. Throws std::runtime_error
/// "<what>: cannot open <path>" or "<what>: write failed on <path>" when
/// fopen, fwrite or fclose fails. fclose is checked too: it flushes the
/// buffered tail, so a full disk often shows only there.
void writeFileOrThrow(const std::string& path, std::string_view body, std::string_view what);

} // namespace gfi::util
