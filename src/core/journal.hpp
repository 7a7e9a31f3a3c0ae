#pragma once
// Campaign journal: a JSONL checkpoint of classified runs. The runner appends
// one line per completed RunResult (flushed immediately, so a killed campaign
// loses at most the run in flight) and resumes by loading the journal and
// skipping every fault whose (index, description) pair is already classified.
//
// A journal line stores the classification and diagnostics, not the FaultSpec
// itself: on resume the FaultSpec is taken from the *current* fault list and
// validated against the recorded description, so a journal can never replay
// results onto a different fault list unnoticed.

#include "core/campaign.hpp"

#include <cstdio>
#include <mutex>
#include <optional>
#include <string_view>

namespace gfi::campaign {

/// One parsed journal line.
struct JournalEntry {
    std::size_t index = 0;        ///< position in the campaign fault list
    std::string faultDescription; ///< fault::describe() at write time
    RunResult result;             ///< fault field is left golden; the resumer
                                  ///< re-attaches the FaultSpec from its list
};

/// Append-mode writer plus loader for campaign checkpoints.
class CampaignJournal {
public:
    /// Opens @p path for appending (creates it if missing). Throws
    /// std::runtime_error when the file cannot be opened.
    explicit CampaignJournal(std::string path);
    ~CampaignJournal();
    CampaignJournal(const CampaignJournal&) = delete;
    CampaignJournal& operator=(const CampaignJournal&) = delete;

    /// Appends one classified run and flushes the line to disk. Thread-safe:
    /// concurrent appends serialize behind an internal mutex, so every
    /// journal line is written whole — a torn interleaving would poison the
    /// checkpoint for resume.
    void append(std::size_t index, const RunResult& result);

    /// The journal file path.
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

    /// When enabled, appended lines carry the run's kernel-probe deltas in a
    /// "probes" object, so a resumed campaign can rebuild the same telemetry
    /// counts from restored entries. Off by default: without a telemetry sink
    /// the line format stays byte-identical to pre-observability journals.
    void setEmbedProbes(bool on) noexcept { embedProbes_ = on; }
    [[nodiscard]] bool embedProbes() const noexcept { return embedProbes_; }

    /// Renders one journal line (without trailing newline). With
    /// @p embedProbes the line gains a "probes" object when the result
    /// carries a valid probe snapshot.
    [[nodiscard]] static std::string entryToJson(std::size_t index, const RunResult& result,
                                                 bool embedProbes = false);

    /// Decodes one journal line in a single util::JsonReader pass;
    /// std::nullopt unless the line is one complete JSON object whose index,
    /// fault and outcome are present with the right types and whose every
    /// other known member is well-typed, with integers integral, within
    /// +-2^53 and in range for their field (counters non-negative). The first
    /// occurrence of a key wins; unknown members are grammar-checked and
    /// skipped.
    [[nodiscard]] static std::optional<JournalEntry> parseLine(std::string_view line);

    /// What parseText() found: the well-formed entries plus how many
    /// non-empty lines failed to parse (torn by a kill mid-append, or
    /// corrupted on disk) and were skipped.
    struct LoadResult {
        std::vector<JournalEntry> entries;
        std::size_t skippedLines = 0;
    };

    /// Decodes every '\n'-separated line of @p text in place (blank lines
    /// are separators). Unparseable lines are skipped but counted, so a
    /// resume can tell a clean journal from a lossy one.
    [[nodiscard]] static LoadResult parseText(std::string_view text);

    /// parseText() over the file @p path, read in one util::readFileOrThrow
    /// call (a read error throws); empty when the file does not exist. Later
    /// duplicates of an index win (a retried/rewritten run).
    [[nodiscard]] static LoadResult loadWithStats(const std::string& path);

private:
    std::mutex mutex_;
    std::string path_;
    std::FILE* file_ = nullptr;
    bool embedProbes_ = false;
};

/// Rebuilds a complete CampaignReport from journal @p entries covering the
/// whole of @p faults: every index 0..faults.size()-1 must be present (later
/// duplicates win) with a description matching the fault at that index, which
/// is then re-attached. The restored runs are indistinguishable from a live
/// campaign (fromJournal is cleared), so a report rebuilt from a verified
/// store entry renders byte-identically to the run that produced it. The
/// results are moved out of @p entries (pass an rvalue to avoid a copy).
/// Throws std::runtime_error on a missing index or a description mismatch.
[[nodiscard]] CampaignReport reportFromEntries(const std::vector<fault::FaultSpec>& faults,
                                               std::vector<JournalEntry> entries);

} // namespace gfi::campaign
