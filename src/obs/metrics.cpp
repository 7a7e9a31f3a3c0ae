#include "obs/metrics.hpp"

#include "util/json.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace gfi::obs {

namespace {

std::uint64_t packDouble(double v) noexcept
{
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof raw);
    return raw;
}

double unpackDouble(std::uint64_t raw) noexcept
{
    double v = 0;
    std::memcpy(&v, &raw, sizeof v);
    return v;
}

/// Numbers in exposition output: integers render without a decimal point so
/// counter dumps are byte-stable and diffable.
std::string renderNumber(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
        return std::to_string(static_cast<long long>(v));
    }
    return formatDouble(v, 9);
}

/// The instrument name up to the label block (TYPE/HELP headers cover every
/// labeled sibling of the same base name).
std::string baseName(const std::string& name)
{
    const std::size_t brace = name.find('{');
    return brace == std::string::npos ? name : name.substr(0, brace);
}

} // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upperBounds) : bounds_(std::move(upperBounds))
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
        throw std::invalid_argument("Histogram: bucket bounds must be sorted ascending");
    }
    bucketStorage_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    buckets_ = bucketStorage_.get();
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
}

void Histogram::observe(double v) noexcept
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) {
        ++i;
    }
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = sumBits_.load(std::memory_order_relaxed);
    while (!sumBits_.compare_exchange_weak(cur, packDouble(unpackDouble(cur) + v),
                                           std::memory_order_relaxed)) {
    }
}

double Histogram::sum() const noexcept
{
    return unpackDouble(sumBits_.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Instrument& inst = instruments_[name];
    if (!inst.counter) {
        if (inst.gauge || inst.histogram) {
            throw std::logic_error("MetricsRegistry: '" + name +
                                   "' already registered as a different kind");
        }
        inst.counter = std::make_unique<Counter>();
        inst.help = help;
    }
    return *inst.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Instrument& inst = instruments_[name];
    if (!inst.gauge) {
        if (inst.counter || inst.histogram) {
            throw std::logic_error("MetricsRegistry: '" + name +
                                   "' already registered as a different kind");
        }
        inst.gauge = std::make_unique<Gauge>();
        inst.help = help;
    }
    return *inst.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upperBounds,
                                      const std::string& help)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Instrument& inst = instruments_[name];
    if (!inst.histogram) {
        if (inst.counter || inst.gauge) {
            throw std::logic_error("MetricsRegistry: '" + name +
                                   "' already registered as a different kind");
        }
        inst.histogram = std::make_unique<Histogram>(std::move(upperBounds));
        inst.help = help;
    }
    return *inst.histogram;
}

bool MetricsRegistry::has(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return instruments_.count(name) != 0;
}

std::uint64_t MetricsRegistry::counterValue(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = instruments_.find(name);
    return it != instruments_.end() && it->second.counter ? it->second.counter->value() : 0;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counterValues() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, inst] : instruments_) {
        if (inst.counter) {
            out[name] = inst.counter->value();
        }
    }
    return out;
}

std::string MetricsRegistry::prometheusText() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    std::string lastBase;
    for (const auto& [name, inst] : instruments_) {
        const std::string base = baseName(name);
        if (base != lastBase) {
            lastBase = base;
            if (!inst.help.empty()) {
                out += "# HELP " + base + " " + inst.help + "\n";
            }
            out += "# TYPE " + base + " ";
            out += inst.counter ? "counter" : inst.gauge ? "gauge" : "histogram";
            out += "\n";
        }
        if (inst.counter) {
            out += name + " " + std::to_string(inst.counter->value()) + "\n";
        } else if (inst.gauge) {
            out += name + " " + renderNumber(inst.gauge->value()) + "\n";
        } else if (inst.histogram) {
            const Histogram& h = *inst.histogram;
            // Buckets render cumulatively, per the exposition format.
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h.upperBounds().size(); ++i) {
                cumulative += h.bucketCount(i);
                out += base + "_bucket{le=\"" + renderNumber(h.upperBounds()[i]) + "\"} " +
                       std::to_string(cumulative) + "\n";
            }
            out += base + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
            out += base + "_sum " + renderNumber(h.sum()) + "\n";
            out += base + "_count " + std::to_string(h.count()) + "\n";
        }
    }
    return out;
}

std::string MetricsRegistry::json() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string counters;
    std::string gauges;
    std::string histograms;
    for (const auto& [name, inst] : instruments_) {
        if (inst.counter) {
            counters += (counters.empty() ? "" : ",\n") + std::string("    \"") +
                        util::jsonEscape(name) + "\": " + std::to_string(inst.counter->value());
        } else if (inst.gauge) {
            gauges += (gauges.empty() ? "" : ",\n") + std::string("    \"") +
                      util::jsonEscape(name) + "\": " + renderNumber(inst.gauge->value());
        } else if (inst.histogram) {
            const Histogram& h = *inst.histogram;
            std::string buckets;
            for (std::size_t i = 0; i < h.upperBounds().size(); ++i) {
                buckets += (i > 0 ? ", " : "") + std::string("{\"le\": ") +
                           renderNumber(h.upperBounds()[i]) + ", \"count\": " +
                           std::to_string(h.bucketCount(i)) + "}";
            }
            buckets += (h.upperBounds().empty() ? "" : ", ") +
                       std::string("{\"le\": \"+Inf\", \"count\": ") +
                       std::to_string(h.bucketCount(h.upperBounds().size())) + "}";
            histograms += (histograms.empty() ? "" : ",\n") + std::string("    \"") +
                          util::jsonEscape(name) + "\": {\"count\": " + std::to_string(h.count()) +
                          ", \"sum\": " + renderNumber(h.sum()) + ", \"buckets\": [" +
                          buckets + "]}";
        }
    }
    return "{\n  \"counters\": {\n" + counters + "\n  },\n  \"gauges\": {\n" + gauges +
           "\n  },\n  \"histograms\": {\n" + histograms + "\n  }\n}\n";
}

} // namespace gfi::obs
