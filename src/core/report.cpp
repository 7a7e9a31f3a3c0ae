#include "core/report.hpp"

#include "util/file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"


namespace gfi::campaign {

void writeReportCsv(const CampaignReport& report, const std::string& path,
                    const CsvOptions& options)
{
    CsvWriter csv(path);
    std::vector<std::string> header{
        "fault", "target", "outcome", "first_output_error_fs", "total_output_error_fs",
        "max_analog_deviation_v", "analog_time_outside_tol_s", "erred_signals",
        "corrupted_state", "attempts", "wall_s", "checkpoint_fs", "resim_fs",
        "from_journal", "error", "collapsed_from", "batch_lane"};
    if (options.costColumns) {
        // Appended after every historical column so the default shape stays
        // byte-identical and trailing-column consumers keep working.
        header.insert(header.end(), {"digital_waves", "analog_steps", "forensic"});
    }
    csv.writeRow(header);
    for (const RunResult& r : report.runs) {
        std::string erred;
        for (const std::string& s : r.erredSignals) {
            erred += (erred.empty() ? "" : ";") + s;
        }
        std::string corrupted;
        for (const std::string& s : r.corruptedState) {
            corrupted += (corrupted.empty() ? "" : ";") + s;
        }
        std::vector<std::string> row{fault::describe(r.fault), targetOf(r.fault),
                                     toString(r.outcome),
                                     std::to_string(r.firstOutputError),
                                     std::to_string(r.totalOutputErrorTime),
                                     formatDouble(r.maxAnalogDeviation, 9),
                                     formatDouble(r.analogTimeOutsideTol, 9), erred,
                                     corrupted, std::to_string(r.diagnostics.attempts),
                                     formatDouble(r.diagnostics.wallSeconds, 6),
                                     std::to_string(r.diagnostics.checkpointTime),
                                     std::to_string(r.diagnostics.resimulatedTime),
                                     r.diagnostics.fromJournal ? "1" : "0",
                                     r.diagnostics.error, r.diagnostics.collapsedFrom,
                                     r.diagnostics.batchLane > 0
                                         ? std::to_string(r.diagnostics.batchLane)
                                         : ""};
        if (options.costColumns) {
            row.push_back(std::to_string(r.diagnostics.digitalWaves));
            row.push_back(std::to_string(r.diagnostics.analogSteps));
            row.push_back(r.diagnostics.forensic);
        }
        csv.writeRow(row);
    }
    csv.close();
}

std::string reportToJson(const CampaignReport& report)
{
    const auto hist = report.histogram();
    auto count = [&](Outcome o) {
        const auto it = hist.find(o);
        return it == hist.end() ? 0 : it->second;
    };

    std::string json = "{\n  \"summary\": {\n";
    json += "    \"total\": " + std::to_string(report.runs.size());
    // One counter per Outcome category — iterate the full enum so new
    // categories can never be silently dropped from the summary.
    for (Outcome o : kAllOutcomes) {
        json += ",\n    \"" + std::string(toString(o)) + "\": " + std::to_string(count(o));
    }
    json += "\n  },\n";
    json += "  \"runs\": [\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        const RunResult& r = report.runs[i];
        json += "    {";
        json += "\"fault\": \"" + util::jsonEscape(fault::describe(r.fault)) + "\", ";
        json += "\"target\": \"" + util::jsonEscape(targetOf(r.fault)) + "\", ";
        json += "\"outcome\": \"" + std::string(toString(r.outcome)) + "\", ";
        json += "\"first_output_error_fs\": " + std::to_string(r.firstOutputError) + ", ";
        json += "\"total_output_error_fs\": " + std::to_string(r.totalOutputErrorTime) + ", ";
        json += "\"max_analog_deviation_v\": " + formatDouble(r.maxAnalogDeviation, 9) + ", ";
        json += "\"attempts\": " + std::to_string(r.diagnostics.attempts);
        // Forked runs carry their checkpoint bookkeeping; from-scratch runs
        // omit the fields so pre-fork reports keep their exact shape.
        if (r.diagnostics.checkpointTime > 0) {
            json += ", \"checkpoint_fs\": " + std::to_string(r.diagnostics.checkpointTime);
            json += ", \"resim_fs\": " + std::to_string(r.diagnostics.resimulatedTime);
        }
        // Resumed campaigns restore classified rows from the journal; flag
        // them so a report consumer can tell restored from fresh results.
        if (r.diagnostics.fromJournal) {
            json += ", \"from_journal\": true";
        }
        if (!r.diagnostics.error.empty()) {
            json += ", \"error\": \"" + util::jsonEscape(r.diagnostics.error) + "\"";
        }
        // Expanded collapse-class members name their simulated
        // representative; simulated runs omit the key so pre-collapse
        // reports keep their exact shape.
        if (!r.diagnostics.collapsedFrom.empty()) {
            json += ", \"collapsed_from\": \"" + util::jsonEscape(r.diagnostics.collapsedFrom) +
                    "\"";
        }
        // Word-simulated runs name their fault lane (>= 1); event-driven
        // runs omit the key so pre-batch reports keep their exact shape.
        if (r.diagnostics.batchLane > 0) {
            json += ", \"batch_lane\": " + std::to_string(r.diagnostics.batchLane);
        }
        // Abnormal runs that dumped a flight-recorder window name the
        // artifact stem; other runs omit the key, keeping the exact
        // pre-forensics shape.
        if (!r.diagnostics.forensic.empty()) {
            json += ", \"forensic\": \"" + util::jsonEscape(r.diagnostics.forensic) + "\"";
        }
        json += "}";
        json += i + 1 < report.runs.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    return json;
}

void writeReportJson(const CampaignReport& report, const std::string& path)
{
    util::writeFileOrThrow(path, reportToJson(report), "writeReportJson");
}

} // namespace gfi::campaign
