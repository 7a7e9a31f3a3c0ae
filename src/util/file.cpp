#include "util/file.hpp"

#include <cstdio>
#include <stdexcept>

namespace gfi::util {

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
