#include "obs/bench_compare.hpp"

#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <cmath>

namespace gfi::obs {

namespace {

bool endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

BenchMeta parseMeta(const util::JsonValue& doc)
{
    BenchMeta meta;
    const util::JsonValue* m = doc.find("meta");
    if (m == nullptr || !m->isObject()) {
        return meta;
    }
    meta.present = true;
    if (const auto* v = m->find("schema"); v != nullptr && v->isNumber()) {
        meta.schema = static_cast<long long>(v->asNumber());
    }
    if (const auto* v = m->find("tool"); v != nullptr && v->isString()) {
        meta.tool = v->asString();
    }
    if (const auto* v = m->find("git_sha"); v != nullptr && v->isString()) {
        meta.gitSha = v->asString();
    }
    if (const auto* v = m->find("build_type"); v != nullptr && v->isString()) {
        meta.buildType = v->asString();
    }
    if (const auto* v = m->find("workers"); v != nullptr && v->isNumber()) {
        meta.workers = static_cast<long long>(v->asNumber());
    }
    if (const auto* v = m->find("timestamp"); v != nullptr && v->isString()) {
        meta.timestamp = v->asString();
    }
    return meta;
}

/// Numeric members of @p obj (document order), skipping "meta" and names.
BenchSample sampleFromObject(std::string name, const util::JsonObject& obj)
{
    BenchSample s;
    s.name = std::move(name);
    for (const auto& [key, value] : obj) {
        if (value.isNumber()) {
            s.values.emplace_back(key, value.asNumber());
        } else if (value.isBool()) {
            // Booleans compare for equality drift (e.g. "identical"), mapped
            // onto 0/1 so a flipped invariant shows as a changed metric.
            s.values.emplace_back(key, value.asBool() ? 1.0 : 0.0);
        }
    }
    return s;
}

} // namespace

const double* BenchSample::value(const std::string& key) const
{
    for (const auto& [k, v] : values) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

const BenchSample* BenchSet::sample(const std::string& name) const
{
    for (const BenchSample& s : samples) {
        if (s.name == name) {
            return &s;
        }
    }
    return nullptr;
}

BenchSet parseBenchSet(const std::string& jsonText, std::string source)
{
    BenchSet set;
    set.source = std::move(source);
    const util::JsonValue doc = util::parseJson(jsonText);
    if (!doc.isObject()) {
        throw std::runtime_error(set.source + ": not a JSON object");
    }
    set.meta = parseMeta(doc);

    if (const auto* benches = doc.find("benchmarks");
        benches != nullptr && benches->isArray()) {
        // Tee shape: {"tool": ..., "benchmarks": [{"name": ..., metrics}]}.
        if (!set.meta.present) {
            if (const auto* tool = doc.find("tool"); tool != nullptr && tool->isString()) {
                set.meta.tool = tool->asString();
            }
        }
        for (const util::JsonValue& b : benches->asArray()) {
            if (!b.isObject()) {
                continue;
            }
            std::string name = "?";
            if (const auto* n = b.find("name"); n != nullptr && n->isString()) {
                name = n->asString();
            }
            set.samples.push_back(sampleFromObject(std::move(name), b.asObject()));
        }
        return set;
    }
    if (const auto* bench = doc.find("benchmark"); bench != nullptr && bench->isString()) {
        // Single-object shape: {"benchmark": "perf_x", metrics...}.
        set.samples.push_back(sampleFromObject(bench->asString(), doc.asObject()));
        return set;
    }
    throw std::runtime_error(set.source +
                             ": neither a \"benchmarks\" array nor a \"benchmark\" object");
}

MetricDirection metricDirection(const std::string& key)
{
    if (key.find("per_s") != std::string::npos ||
        key.find("per_second") != std::string::npos || key.rfind("speedup", 0) == 0) {
        return MetricDirection::HigherIsBetter;
    }
    // Work per simulated µs (steps, solves, crossings): less work for the
    // same simulated time is better.
    if (endsWith(key, "_s") || endsWith(key, "_ms") || endsWith(key, "_seconds") ||
        key == "wall_ms" || endsWith(key, "_ns") || endsWith(key, "_per_us")) {
        return MetricDirection::LowerIsBetter;
    }
    return MetricDirection::Ignore;
}

std::size_t BenchComparison::regressions() const
{
    std::size_t n = 0;
    for (const BenchDelta& d : deltas) {
        n += d.regression ? 1 : 0;
    }
    return n;
}

std::string BenchComparison::table() const
{
    std::string out;
    for (const std::string& s : incompatibilities) {
        out += "INCOMPATIBLE: " + s + "\n";
    }
    for (const std::string& s : warnings) {
        out += "note: " + s + "\n";
    }
    if (refused()) {
        return out;
    }
    TextTable t;
    t.setHeader({"benchmark", "metric", "baseline", "current", "change", "verdict"});
    for (const BenchDelta& d : deltas) {
        const double pct = d.worseBy * 100.0;
        t.addRow({d.sample, d.metric, formatDouble(d.baseline, 6),
                  formatDouble(d.current, 6),
                  (pct >= 0 ? "+" : "") + formatDouble(pct, 2) + "% worse",
                  d.regression ? "REGRESSION" : (d.improvement ? "improved" : "ok")});
    }
    out += t.str();
    return out;
}

BenchComparison compareBenchSets(const BenchSet& baseline, const BenchSet& current,
                                 double threshold)
{
    BenchComparison cmp;
    const BenchMeta& bm = baseline.meta;
    const BenchMeta& cm = current.meta;
    if (!bm.present || !cm.present) {
        cmp.warnings.push_back("missing metadata block in " +
                               (!bm.present ? baseline.source : current.source) +
                               " (pre-metadata emitter?); comparability unchecked");
    } else {
        if (bm.schema != cm.schema) {
            cmp.incompatibilities.push_back(
                "metadata schema differs (" + std::to_string(bm.schema) + " vs " +
                std::to_string(cm.schema) + ")");
        }
        if (!bm.tool.empty() && !cm.tool.empty() && bm.tool != cm.tool) {
            cmp.incompatibilities.push_back("tool differs (" + bm.tool + " vs " + cm.tool +
                                            ")");
        }
        if (bm.buildType != cm.buildType) {
            cmp.incompatibilities.push_back("build type differs (" + bm.buildType + " vs " +
                                            cm.buildType + ")");
        }
        if (bm.workers != cm.workers) {
            cmp.incompatibilities.push_back(
                "configured worker count differs (" + std::to_string(bm.workers) + " vs " +
                std::to_string(cm.workers) + ")");
        }
        if (bm.gitSha != cm.gitSha) {
            cmp.warnings.push_back("git sha " + bm.gitSha + " -> " + cm.gitSha);
        }
    }
    if (cmp.refused()) {
        return cmp;
    }

    for (const BenchSample& base : baseline.samples) {
        const BenchSample* cur = current.sample(base.name);
        if (cur == nullptr) {
            cmp.warnings.push_back("benchmark '" + base.name + "' missing from " +
                                   current.source);
            continue;
        }
        for (const auto& [key, baseVal] : base.values) {
            const MetricDirection dir = metricDirection(key);
            if (dir == MetricDirection::Ignore) {
                continue;
            }
            const double* curVal = cur->value(key);
            if (curVal == nullptr) {
                cmp.warnings.push_back("metric '" + base.name + "/" + key +
                                       "' missing from " + current.source);
                continue;
            }
            if (!(std::fabs(baseVal) > 0.0) || !std::isfinite(baseVal) ||
                !std::isfinite(*curVal)) {
                continue; // no meaningful relative change
            }
            BenchDelta d;
            d.sample = base.name;
            d.metric = key;
            d.baseline = baseVal;
            d.current = *curVal;
            d.worseBy = dir == MetricDirection::HigherIsBetter
                            ? (baseVal - *curVal) / baseVal
                            : (*curVal - baseVal) / baseVal;
            d.regression = d.worseBy > threshold;
            d.improvement = d.worseBy < -threshold;
            cmp.deltas.push_back(std::move(d));
        }
    }
    for (const BenchSample& cur : current.samples) {
        if (baseline.sample(cur.name) == nullptr) {
            cmp.warnings.push_back("benchmark '" + cur.name + "' new in " + current.source);
        }
    }
    return cmp;
}

} // namespace gfi::obs
