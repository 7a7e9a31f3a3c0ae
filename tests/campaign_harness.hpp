#pragma once
// Shared campaign-test plumbing: whole-file capture, one campaign captured in
// every output format, the normalisers that remove the provenance bytes the
// batch backend is allowed to add, and a run()-counting testbench wrapper.

#include "core/campaign.hpp"
#include "core/report.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace gfi::test {

/// A testbench of type @p Tb that counts its run() calls: how many
/// simulations a campaign started, whether on a fresh or a restored
/// testbench (the pattern of perfbench's Metered<Tb>).
template <typename Tb>
class Counted final : public Tb {
public:
    template <typename... Args>
    explicit Counted(std::shared_ptr<std::atomic<int>> runs, Args&&... args)
        : Tb(std::forward<Args>(args)...), runs_(std::move(runs))
    {
    }

    void run() override
    {
        runs_->fetch_add(1, std::memory_order_relaxed);
        Tb::run();
    }

private:
    std::shared_ptr<std::atomic<int>> runs_;
};

/// The whole file as bytes ("" when it does not exist).
inline std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Removes every `, "batch_lane": N` provenance key — the only journal and
/// JSON bytes the batch backend may add relative to the event-driven kernel.
inline std::string stripBatchLane(std::string s)
{
    const std::string key = ", \"batch_lane\": ";
    std::size_t pos = 0;
    while ((pos = s.find(key, pos)) != std::string::npos) {
        std::size_t end = pos + key.size();
        while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end]))) {
            ++end;
        }
        s.erase(pos, end - pos);
    }
    return s;
}

/// Removes the value of the trailing batch_lane CSV column (batched rows end
/// ",N"; event-driven rows end ","), leaving the rest of the row untouched.
inline std::string stripCsvLaneColumn(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    std::size_t start = 0;
    while (start < s.size()) {
        std::size_t end = s.find('\n', start);
        if (end == std::string::npos) {
            end = s.size();
        }
        std::size_t cut = end;
        while (cut > start && std::isdigit(static_cast<unsigned char>(s[cut - 1]))) {
            --cut;
        }
        if (cut == end || cut == start || s[cut - 1] != ',') {
            cut = end; // not a ",<digits>" tail — keep the line as-is
        }
        out.append(s, start, cut - start);
        if (end < s.size()) {
            out += '\n';
        }
        start = end + 1;
    }
    return out;
}

/// One campaign's observable output in every format.
struct CampaignOutput {
    std::string journal; ///< raw JSONL bytes
    std::string summary;
    std::string detail;
    std::string json;
    std::string csv;
    campaign::CampaignReport report;
};

/// Renders @p report in every report format next to its raw @p journal bytes.
inline CampaignOutput capture(campaign::CampaignReport report, std::string journal,
                              const std::string& scratchPath)
{
    CampaignOutput out;
    out.journal = std::move(journal);
    out.summary = report.summaryTable();
    out.detail = report.detailTable();
    out.json = campaign::reportToJson(report);
    const std::string csvPath = scratchPath + ".csv";
    campaign::writeReportCsv(report, csvPath);
    out.csv = slurp(csvPath);
    std::remove(csvPath.c_str());
    out.report = std::move(report);
    return out;
}

/// Runs @p faults on a fresh runner with a fresh journal and timing
/// recording off (the wall clock is the only nondeterministic field), after
/// @p configure has adjusted the runner. @p tag names the journal file.
inline CampaignOutput runCampaign(
    const fault::TestbenchFactory& factory, const std::vector<fault::FaultSpec>& faults,
    const std::string& tag, const std::function<void(campaign::CampaignRunner&)>& configure = {})
{
    const std::string path = ::testing::TempDir() + "gfi_" + tag + ".jsonl";
    std::remove(path.c_str());
    campaign::CampaignRunner runner(factory);
    runner.setRecordTiming(false);
    runner.setJournalPath(path);
    if (configure) {
        configure(runner);
    }
    campaign::CampaignReport report = runner.run(faults);
    CampaignOutput out = capture(std::move(report), slurp(path), path);
    std::remove(path.c_str());
    return out;
}

} // namespace gfi::test
