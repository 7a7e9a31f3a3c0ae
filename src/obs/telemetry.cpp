#include "obs/telemetry.hpp"

#include "util/file.hpp"

#include <cstdlib>

namespace gfi::obs {

std::unique_ptr<Telemetry> Telemetry::fromEnv()
{
    const char* tracePath = std::getenv("GFI_TRACE");
    const char* metricsPath = std::getenv("GFI_METRICS");
    const bool wantTrace = tracePath != nullptr && *tracePath != '\0';
    const bool wantMetrics = metricsPath != nullptr && *metricsPath != '\0';
    if (!wantTrace && !wantMetrics) {
        return nullptr;
    }
    auto t = std::make_unique<Telemetry>();
    if (wantTrace) {
        t->setTracePath(tracePath);
    }
    if (wantMetrics) {
        t->setMetricsPath(metricsPath);
    }
    return t;
}

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
