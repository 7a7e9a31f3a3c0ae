#include "obs/telemetry.hpp"

#include "util/file.hpp"

namespace gfi::obs {

namespace {

bool endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

void Telemetry::flush() const
{
    if (!tracePath_.empty() && trace_) {
        trace_->writeFile(tracePath_);
    }
    if (!metricsPath_.empty()) {
        util::writeFileOrThrow(metricsPath_,
                               endsWith(metricsPath_, ".json") ? metrics_.json()
                                                               : metrics_.prometheusText(),
                               "Telemetry");
    }
}

} // namespace gfi::obs
