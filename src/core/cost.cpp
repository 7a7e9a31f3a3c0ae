#include "core/cost.hpp"

#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <algorithm>

namespace gfi::campaign {

void CostBucket::add(const RunResult& r)
{
    ++runs;
    const auto att = static_cast<std::uint64_t>(std::max(1, r.diagnostics.attempts));
    attempts += att;
    retries += att - 1;
    digitalWaves += r.diagnostics.digitalWaves;
    analogSteps += r.diagnostics.analogSteps;
    wallSeconds += r.diagnostics.wallSeconds;
    if (r.diagnostics.fromJournal) {
        ++restored;
    }
    if (!r.diagnostics.collapsedFrom.empty()) {
        ++collapsed;
    }
    if (r.diagnostics.batchLane > 0) {
        ++batched;
    }
    if (r.diagnostics.checkpointTime > 0) {
        ++forked;
    }
}

CostReport buildCostReport(const CampaignReport& report)
{
    CostReport cost;
    for (const RunResult& r : report.runs) {
        cost.total.add(r);
        cost.byClass[fault::kindOf(r.fault)].add(r);
        cost.byTarget[targetOf(r.fault)].add(r);
        cost.byOutcome[toString(r.outcome)].add(r);
    }
    return cost;
}

namespace {

std::vector<std::string> bucketCells(const CostBucket& b)
{
    return {std::to_string(b.runs),
            std::to_string(b.attempts),
            std::to_string(b.retries),
            std::to_string(b.digitalWaves),
            std::to_string(b.analogSteps),
            formatDouble(b.wallSeconds, 6),
            std::to_string(b.restored),
            std::to_string(b.collapsed),
            std::to_string(b.batched),
            std::to_string(b.forked)};
}

std::string bucketJson(const CostBucket& b)
{
    std::string json = "{";
    json += "\"runs\": " + std::to_string(b.runs) + ", ";
    json += "\"attempts\": " + std::to_string(b.attempts) + ", ";
    json += "\"retries\": " + std::to_string(b.retries) + ", ";
    json += "\"digital_waves\": " + std::to_string(b.digitalWaves) + ", ";
    json += "\"analog_steps\": " + std::to_string(b.analogSteps) + ", ";
    json += "\"wall_s\": " + formatDouble(b.wallSeconds, 6) + ", ";
    json += "\"restored\": " + std::to_string(b.restored) + ", ";
    json += "\"collapsed\": " + std::to_string(b.collapsed) + ", ";
    json += "\"batched\": " + std::to_string(b.batched) + ", ";
    json += "\"forked\": " + std::to_string(b.forked);
    json += "}";
    return json;
}

std::string groupJson(const std::map<std::string, CostBucket>& group)
{
    std::string json = "{";
    bool first = true;
    for (const auto& [key, bucket] : group) {
        json += std::string(first ? "" : ", ") + "\"" + util::jsonEscape(key) +
                "\": " + bucketJson(bucket);
        first = false;
    }
    return json + "}";
}

} // namespace

std::string CostReport::table() const
{
    TextTable t;
    t.setHeader({"dimension", "key", "runs", "attempts", "retries", "waves", "steps",
                 "wall_s", "restored", "collapsed", "batched", "forked"});
    auto addRow = [&t](const std::string& dim, const std::string& key,
                       const CostBucket& b) {
        std::vector<std::string> row{dim, key};
        const auto cells = bucketCells(b);
        row.insert(row.end(), cells.begin(), cells.end());
        t.addRow(row);
    };
    addRow("total", "-", total);
    t.addSeparator();
    for (const auto& [key, bucket] : byClass) {
        addRow("class", key, bucket);
    }
    t.addSeparator();
    for (const auto& [key, bucket] : byTarget) {
        addRow("target", key, bucket);
    }
    t.addSeparator();
    for (const auto& [key, bucket] : byOutcome) {
        addRow("outcome", key, bucket);
    }
    return t.str();
}

std::string CostReport::toJson() const
{
    std::string json = "{\n";
    json += "  \"total\": " + bucketJson(total) + ",\n";
    json += "  \"by_class\": " + groupJson(byClass) + ",\n";
    json += "  \"by_target\": " + groupJson(byTarget) + ",\n";
    json += "  \"by_outcome\": " + groupJson(byOutcome) + "\n";
    json += "}\n";
    return json;
}

void CostReport::writeCsv(const std::string& path) const
{
    CsvWriter csv(path);
    csv.writeRow({"dimension", "key", "runs", "attempts", "retries", "digital_waves",
                  "analog_steps", "wall_s", "restored", "collapsed", "batched", "forked"});
    auto writeRow = [&csv](const std::string& dim, const std::string& key,
                           const CostBucket& b) {
        std::vector<std::string> row{dim, key};
        const auto cells = bucketCells(b);
        row.insert(row.end(), cells.begin(), cells.end());
        csv.writeRow(row);
    };
    writeRow("total", "", total);
    for (const auto& [key, bucket] : byClass) {
        writeRow("class", key, bucket);
    }
    for (const auto& [key, bucket] : byTarget) {
        writeRow("target", key, bucket);
    }
    for (const auto& [key, bucket] : byOutcome) {
        writeRow("outcome", key, bucket);
    }
}

} // namespace gfi::campaign
