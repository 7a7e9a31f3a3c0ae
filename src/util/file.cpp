#include "util/file.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace gfi::util {

std::string readFileOrThrow(const std::string& path, std::string_view what)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw std::runtime_error(std::string(what) + ": cannot read " + path);
    }
    std::string body;
    std::error_code ec;
    if (const auto size = std::filesystem::file_size(path, ec); !ec) {
        body.reserve(size); // one allocation for a regular file
    }
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        body.append(buf, n);
    }
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) {
        throw std::runtime_error(std::string(what) + ": read failed on " + path);
    }
    return body;
}

void writeFileOrThrow(const std::string& path, std::string_view body, std::string_view what)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        throw std::runtime_error(std::string(what) + ": cannot open " + path);
    }
    const bool written = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) != 0 || !written) {
        throw std::runtime_error(std::string(what) + ": write failed on " + path);
    }
}

} // namespace gfi::util
