#pragma once
// Whole-file writes that report every failure.

#include <string>
#include <string_view>

namespace gfi::util {

/// Writes @p body to @p path, replacing the file. Throws std::runtime_error
/// "<what>: cannot open <path>" or "<what>: write failed on <path>" when
/// fopen, fwrite or fclose fails. fclose is checked too: it flushes the
/// buffered tail, so a full disk often shows only there.
void writeFileOrThrow(const std::string& path, std::string_view body, std::string_view what);

} // namespace gfi::util
