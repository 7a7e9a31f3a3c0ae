#pragma once
// Content-addressed golden store: memoizes campaign verdicts on disk, keyed
// by the (netlist, stimulus, fault-list) digest triple. Identical inputs hash
// to the identical key, and the engine's ordered-commit determinism makes the
// stored verdicts valid for every worker width and backend — so a cache hit
// replays a campaign byte-identically without simulating anything.
//
// Layout under the store root:
//
//   objects/<k[0..1]>/<k>/meta.json      entry provenance: the three input
//                                        digests, the run count and the
//                                        SHA-256 of verdicts.jsonl
//   objects/<k[0..1]>/<k>/verdicts.jsonl one CampaignJournal line per run;
//                                        a hit rebuilds the report from it
//   names/<circuit>.json                 latest entry recorded for a circuit
//                                        name: {netlist digest, key}
//
// where <k> = CacheKey::combined(), the SHA-256 over the three input digests.
// Writes go through a temp directory + rename, so a killed process never
// leaves a half-written entry addressable.
//
// Trust model: lookup() recomputes the verdicts digest and compares it to
// meta.json — any mismatch is a GoldenStoreError (hard error, the judge
// contract: a corrupt answer file must never silently verify). Resolving an
// entry *by circuit name* additionally compares the stored netlist digest to
// the loaded circuit's; a mismatch is the PRE009 stale-cache error.

#include "core/journal.hpp"
#include "io/ingest.hpp"

#include <optional>

namespace gfi::io {

/// The digest triple addressing one campaign result.
struct CacheKey {
    std::string netlistDigest;
    std::string stimulusDigest;
    std::string faultDigest;

    /// SHA-256 over the canonical key text — the store address.
    [[nodiscard]] std::string combined() const;

    /// The key of a prepared workload.
    [[nodiscard]] static CacheKey of(const IngestWorkload& workload);
};

/// Store corruption or contract violation: a payload whose recomputed digest
/// does not match meta.json, an unreadable/malformed entry, a failed write.
class GoldenStoreError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One verified store entry, ready to rebuild a CampaignReport.
struct StoreEntry {
    CacheKey key;
    std::string circuitName;                       ///< name at record time
    std::vector<campaign::JournalEntry> verdicts;  ///< parsed journal lines
};

/// The names/<circuit>.json pointer: which entry a circuit name last wrote.
struct NamePointer {
    std::string circuitName;
    std::string netlistDigest; ///< digest of the design that produced the entry
    std::string key;           ///< CacheKey::combined() of that entry
};

/// On-disk content-addressed store. Const methods only read; put() is the
/// single writer. Not internally locked: concurrent put() of the *same* key
/// is benign (last rename wins with identical content), concurrent put() of
/// different keys never collides.
class GoldenStore {
public:
    /// Opens (and lazily creates) the store rooted at @p root.
    explicit GoldenStore(std::string root);

    [[nodiscard]] const std::string& root() const noexcept { return root_; }

    /// True when an entry for @p key exists (no integrity check).
    [[nodiscard]] bool contains(const CacheKey& key) const;

    /// Loads and verifies the entry for @p key. std::nullopt when absent;
    /// GoldenStoreError when present but corrupt (digest mismatch, malformed
    /// meta, unparseable verdict line).
    [[nodiscard]] std::optional<StoreEntry> lookup(const CacheKey& key) const;

    /// Records @p report under @p key (idempotent; an existing entry is
    /// replaced atomically) and repoints names/<circuitName>.json at it.
    /// Every file is staged under tmp/ and checked through its close; a
    /// failed write throws GoldenStoreError and commits nothing.
    void put(const CacheKey& key, const std::string& circuitName,
             const campaign::CampaignReport& report);

    /// The name pointer of @p circuitName, if one was ever recorded.
    [[nodiscard]] std::optional<NamePointer> namePointer(const std::string& circuitName) const;

    /// Resolves @p circuitName's pointer and verifies the entry was recorded
    /// for the design now loaded: a stored netlist digest different from
    /// @p currentNetlistDigest throws lint::PreflightError carrying PRE009
    /// (with both digests in the diagnostic). std::nullopt when the name was
    /// never recorded.
    [[nodiscard]] std::optional<StoreEntry> lookupByName(
        const std::string& circuitName, const std::string& currentNetlistDigest) const;

    /// The directory of @p combinedKey ("objects/<k[0..1]>/<k>").
    [[nodiscard]] std::string entryDir(const std::string& combinedKey) const;

private:
    [[nodiscard]] std::string namePath(const std::string& circuitName) const;

    std::string root_;
};

/// runCampaignCached() outcome: the (possibly replayed) report plus cache
/// provenance.
struct CachedCampaign {
    campaign::CampaignReport report;
    bool hit = false;  ///< true: replayed from the store, nothing simulated
    std::string key;   ///< CacheKey::combined() of the entry consulted/written
};

/// Memoized campaign execution: on a store hit the report is rebuilt from the
/// verified entry (byte-identical to the run that recorded it — runner not
/// invoked); on a miss @p runner executes the workload's fault list and the
/// result is recorded before returning. The runner must already hold the
/// workload's factory (makeTestbench).
[[nodiscard]] CachedCampaign runCampaignCached(
    campaign::CampaignRunner& runner, const IngestWorkload& workload, GoldenStore& store,
    const std::function<void(std::size_t, const campaign::RunResult&)>& progress = {});

} // namespace gfi::io
