#include "core/journal.hpp"

#include "util/file.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace gfi::campaign {

namespace {

std::string quoted(const std::string& s)
{
    return "\"" + util::jsonEscape(s) + "\"";
}

std::string stringArray(const std::vector<std::string>& items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        out += (i > 0 ? ", " : "") + quoted(items[i]);
    }
    return out + "]";
}

} // namespace

CampaignJournal::CampaignJournal(std::string path) : path_(std::move(path))
{
    // A journal left by a killed campaign can end mid-line; terminate it
    // before appending so the first new record is not glued onto the torn one.
    bool needsNewline = false;
    if (std::FILE* probe = std::fopen(path_.c_str(), "rb")) {
        if (std::fseek(probe, -1, SEEK_END) == 0) {
            needsNewline = std::fgetc(probe) != '\n';
        }
        std::fclose(probe);
    }
    file_ = std::fopen(path_.c_str(), "a");
    if (file_ == nullptr) {
        throw std::runtime_error("CampaignJournal: cannot open " + path_);
    }
    if (needsNewline) {
        std::fputc('\n', file_);
    }
}

CampaignJournal::~CampaignJournal()
{
    if (file_ != nullptr) {
        std::fclose(file_);
    }
}

std::string CampaignJournal::entryToJson(std::size_t index, const RunResult& r,
                                         bool embedProbes)
{
    std::string json = "{";
    json += "\"index\": " + std::to_string(index) + ", ";
    json += "\"fault\": " + quoted(fault::describe(r.fault)) + ", ";
    json += "\"outcome\": " + quoted(toString(r.outcome)) + ", ";
    json += "\"attempts\": " + std::to_string(r.diagnostics.attempts) + ", ";
    json += "\"error\": " + quoted(r.diagnostics.error) + ", ";
    json += "\"wall_s\": " + formatDouble(r.diagnostics.wallSeconds, 6) + ", ";
    json += "\"digital_waves\": " + std::to_string(r.diagnostics.digitalWaves) + ", ";
    json += "\"analog_steps\": " + std::to_string(r.diagnostics.analogSteps) + ", ";
    json += "\"checkpoint_fs\": " + std::to_string(r.diagnostics.checkpointTime) + ", ";
    json += "\"resim_fs\": " + std::to_string(r.diagnostics.resimulatedTime) + ", ";
    json += "\"first_output_error_fs\": " + std::to_string(r.firstOutputError) + ", ";
    json += "\"last_output_error_end_fs\": " + std::to_string(r.lastOutputErrorEnd) + ", ";
    json += "\"total_output_error_fs\": " + std::to_string(r.totalOutputErrorTime) + ", ";
    json += "\"max_analog_deviation_v\": " + formatDouble(r.maxAnalogDeviation, 9) + ", ";
    json += "\"analog_time_outside_tol_s\": " + formatDouble(r.analogTimeOutsideTol, 9) + ", ";
    json += "\"erred_signals\": " + stringArray(r.erredSignals) + ", ";
    json += "\"corrupted_state\": " + stringArray(r.corruptedState);
    // Collapse provenance — only when set, so lines of non-collapsed runs
    // remain byte-identical to pre-collapse journals.
    if (!r.diagnostics.collapsedFrom.empty()) {
        json += ", \"collapsed_from\": " + quoted(r.diagnostics.collapsedFrom);
    }
    // Batch provenance — only on word-simulated runs, so event-driven lines
    // remain byte-identical to pre-batch journals.
    if (r.diagnostics.batchLane > 0) {
        json += ", \"batch_lane\": " + std::to_string(r.diagnostics.batchLane);
    }
    // Forensic provenance — only on abnormal runs that dumped a flight-
    // recorder window, so ordinary lines remain byte-identical.
    if (!r.diagnostics.forensic.empty()) {
        json += ", \"forensic\": " + quoted(r.diagnostics.forensic);
    }
    // Appended after every historical key so lines without probes remain
    // byte-identical to pre-observability journals.
    if (embedProbes && r.diagnostics.probes.valid) {
        const obs::ProbeSnapshot& p = r.diagnostics.probes;
        json += ", \"probes\": {";
        json += "\"digital_events\": " + std::to_string(p.digitalEvents) + ", ";
        json += "\"delta_cycles\": " + std::to_string(p.deltaCycles) + ", ";
        json += "\"queue_high_water\": " + std::to_string(p.queueHighWater) + ", ";
        json += "\"pending_events\": " + std::to_string(p.pendingEvents) + ", ";
        json += "\"analog_accepted\": " + std::to_string(p.analogAcceptedSteps) + ", ";
        json += "\"analog_rejected\": " + std::to_string(p.analogRejectedSteps) + ", ";
        json += "\"newton_iterations\": " + std::to_string(p.newtonIterations) + ", ";
        json += "\"companion_rebuilds\": " + std::to_string(p.companionRebuilds) + ", ";
        json += "\"min_dt_s\": " + formatDouble(p.minAcceptedDt, 12) + ", ";
        json += "\"last_dt_s\": " + formatDouble(p.lastAcceptedDt, 12) + ", ";
        json += "\"atod_crossings\": " + std::to_string(p.atodCrossings) + ", ";
        json += "\"dtoa_events\": " + std::to_string(p.dtoaEvents);
        json += "}";
    }
    json += "}";
    return json;
}

void CampaignJournal::append(std::size_t index, const RunResult& result)
{
    const std::string line = entryToJson(index, result, embedProbes_) + "\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
        throw std::runtime_error("CampaignJournal: write failed on " + path_);
    }
}

std::optional<JournalEntry> CampaignJournal::parseLine(std::string_view line)
{
    // Only one complete JSON object is trusted: a line torn by a killed
    // campaign may still hold index/fault/outcome but miss the metrics, and
    // must be re-simulated rather than restored with defaulted fields.
    JournalEntry e;
    std::string outcomeName;
    RunResult& r = e.result;
    RunDiagnostics& d = r.diagnostics;
    obs::ProbeSnapshot& p = d.probes;
    using F = util::JsonField;
    // Optional probes object (lines written with a telemetry sink attached).
    const F probes[] = {
        F::count("digital_events", p.digitalEvents),
        F::count("delta_cycles", p.deltaCycles),
        F::count("queue_high_water", p.queueHighWater),
        F::count("pending_events", p.pendingEvents),
        F::count("analog_accepted", p.analogAcceptedSteps),
        F::count("analog_rejected", p.analogRejectedSteps),
        F::count("newton_iterations", p.newtonIterations),
        F::count("companion_rebuilds", p.companionRebuilds),
        F::number("min_dt_s", p.minAcceptedDt),
        F::number("last_dt_s", p.lastAcceptedDt),
        F::count("atod_crossings", p.atodCrossings),
        F::count("dtoa_events", p.dtoaEvents),
    };
    // In entryToJson's order, which is the order the reader tries first.
    const F fields[] = {
        F::count("index", e.index, true),
        F::text("fault", e.faultDescription, true),
        F::text("outcome", outcomeName, true),
        F::count("attempts", d.attempts),
        F::text("error", d.error),
        F::number("wall_s", d.wallSeconds),
        F::count("digital_waves", d.digitalWaves),
        F::count("analog_steps", d.analogSteps),
        F::integer("checkpoint_fs", d.checkpointTime),
        F::integer("resim_fs", d.resimulatedTime),
        F::integer("first_output_error_fs", r.firstOutputError),
        F::integer("last_output_error_end_fs", r.lastOutputErrorEnd),
        F::integer("total_output_error_fs", r.totalOutputErrorTime),
        F::number("max_analog_deviation_v", r.maxAnalogDeviation),
        F::number("analog_time_outside_tol_s", r.analogTimeOutsideTol),
        F::texts("erred_signals", r.erredSignals),
        F::texts("corrupted_state", r.corruptedState),
        F::text("collapsed_from", d.collapsedFrom),
        F::count("batch_lane", d.batchLane),
        F::text("forensic", d.forensic),
        F::object("probes", probes, p.valid),
    };
    if (!util::readJsonObject(line, fields) || !outcomeFromString(outcomeName, r.outcome)) {
        return std::nullopt;
    }
    d.fromJournal = true;
    return e;
}

CampaignJournal::LoadResult CampaignJournal::parseText(std::string_view text)
{
    LoadResult result;
    while (!text.empty()) {
        // The final line may lack its newline: complete if the flush made it
        // out before the kill, torn otherwise -- parseLine tells them apart.
        const std::size_t eol = std::min(text.find('\n'), text.size());
        const std::string_view line = text.substr(0, eol);
        text.remove_prefix(std::min(eol + 1, text.size()));
        if (line.empty()) {
            continue; // blank lines are separators, not lost data
        }
        if (auto e = parseLine(line)) {
            result.entries.push_back(std::move(*e));
        } else {
            ++result.skippedLines;
        }
    }
    return result;
}

CampaignJournal::LoadResult CampaignJournal::loadWithStats(const std::string& path)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        return {}; // no journal yet: fresh campaign
    }
    return parseText(util::readFileOrThrow(path, "CampaignJournal"));
}

CampaignReport reportFromEntries(const std::vector<fault::FaultSpec>& faults,
                                 std::vector<JournalEntry> entries)
{
    std::vector<JournalEntry*> byIndex(faults.size(), nullptr);
    for (JournalEntry& e : entries) {
        if (e.index < byIndex.size()) {
            byIndex[e.index] = &e; // later duplicates win, like journal resume
        }
    }
    CampaignReport report;
    report.runs.reserve(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        JournalEntry* e = byIndex[i];
        if (e == nullptr) {
            throw std::runtime_error("reportFromEntries: no entry for fault " +
                                     std::to_string(i) + " (" + fault::describe(faults[i]) +
                                     ")");
        }
        const std::string expected = fault::describe(faults[i]);
        if (e->faultDescription != expected) {
            throw std::runtime_error("reportFromEntries: entry " + std::to_string(i) +
                                     " records '" + e->faultDescription +
                                     "' but the fault list has '" + expected + "'");
        }
        RunResult r = std::move(e->result);
        r.fault = faults[i];
        r.diagnostics.fromJournal = false;
        report.runs.push_back(std::move(r));
    }
    return report;
}

} // namespace gfi::campaign
