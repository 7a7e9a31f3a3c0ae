#pragma once
// Campaign report export: machine-readable CSV and JSON alongside the
// printable tables, so campaign results can feed external dashboards or
// regression tracking (the "failure report" artifact of the paper's flow).

#include "core/campaign.hpp"

namespace gfi::campaign {

/// Detail-CSV options. The defaults keep the historical column set
/// byte-identical; costColumns appends the per-run resource columns
/// (digital_waves, analog_steps, forensic) after batch_lane for campaigns
/// that feed cost dashboards.
struct CsvOptions {
    bool costColumns = false;
};

/// Writes one row per run: fault description, target, outcome, timing and
/// deviation metrics. Throws std::runtime_error when the file cannot open.
void writeReportCsv(const CampaignReport& report, const std::string& path,
                    const CsvOptions& options = {});

/// Writes the whole report as a JSON document:
/// { "summary": {outcome counts}, "runs": [ {...}, ... ] }.
void writeReportJson(const CampaignReport& report, const std::string& path);

/// Renders the report as a JSON string (used by writeReportJson; exposed for
/// embedding into other documents).
[[nodiscard]] std::string reportToJson(const CampaignReport& report);

} // namespace gfi::campaign
