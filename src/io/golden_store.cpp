#include "io/golden_store.hpp"

#include "io/sha256.hpp"
#include "lint/preflight.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

#include <filesystem>

namespace gfi::io {

namespace fs = std::filesystem;

namespace {

std::string quoted(const std::string& s)
{
    return "\"" + util::jsonEscape(s) + "\"";
}

std::string readFileOrThrow(const fs::path& path)
{
    try {
        return util::readFileOrThrow(path.string(), "golden store");
    } catch (const std::runtime_error& e) {
        throw GoldenStoreError(e.what());
    }
}

/// File-system-safe rendering of a circuit name (names/<circuit>.json).
std::string sanitizeName(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

} // namespace

std::string CacheKey::combined() const
{
    Sha256 hash;
    hash.update("key v1\n");
    hash.update("netlist " + netlistDigest + "\n");
    hash.update("stimulus " + stimulusDigest + "\n");
    hash.update("faults " + faultDigest + "\n");
    return hash.finishHex();
}

CacheKey CacheKey::of(const IngestWorkload& workload)
{
    return CacheKey{workload.netlistDigest, workload.stimulusDigest, workload.faultDigest};
}

GoldenStore::GoldenStore(std::string root) : root_(std::move(root))
{
    std::error_code ec;
    fs::create_directories(fs::path(root_) / "objects", ec);
    fs::create_directories(fs::path(root_) / "names", ec);
    fs::create_directories(fs::path(root_) / "tmp", ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot create store root " + root_);
    }
}

std::string GoldenStore::entryDir(const std::string& combinedKey) const
{
    if (!looksLikeSha256(combinedKey)) {
        throw GoldenStoreError("golden store: malformed entry key '" + combinedKey + "'");
    }
    return (fs::path(root_) / "objects" / combinedKey.substr(0, 2) / combinedKey).string();
}

std::string GoldenStore::namePath(const std::string& circuitName) const
{
    return (fs::path(root_) / "names" / (sanitizeName(circuitName) + ".json")).string();
}

bool GoldenStore::contains(const CacheKey& key) const
{
    return fs::exists(fs::path(entryDir(key.combined())) / "meta.json");
}

std::optional<StoreEntry> GoldenStore::lookup(const CacheKey& key) const
{
    const std::string combined = key.combined();
    const fs::path dir = entryDir(combined);
    if (!fs::exists(dir / "meta.json")) {
        return std::nullopt;
    }
    StoreEntry entry;
    std::string verdictsSha;
    std::size_t runs = 0;
    using F = util::JsonField;
    const F meta[] = {
        F::text("netlist", entry.key.netlistDigest, true),
        F::text("stimulus", entry.key.stimulusDigest, true),
        F::text("faults", entry.key.faultDigest, true),
        F::text("circuit", entry.circuitName, true),
        F::text("verdicts_sha256", verdictsSha, true),
        F::count("runs", runs, true),
    };
    if (!util::readJsonObject(readFileOrThrow(dir / "meta.json"), meta)) {
        throw GoldenStoreError("golden store: malformed meta.json in entry " + combined);
    }
    // The entry must be the one this key addresses — a moved/tampered object
    // directory is corruption, not a miss.
    if (entry.key.netlistDigest != key.netlistDigest ||
        entry.key.stimulusDigest != key.stimulusDigest ||
        entry.key.faultDigest != key.faultDigest) {
        throw GoldenStoreError("golden store: entry " + combined +
                               " records a different digest triple than its address");
    }

    const std::string verdictsText = readFileOrThrow(dir / "verdicts.jsonl");
    if (sha256Hex(verdictsText) != verdictsSha) {
        throw GoldenStoreError("golden store: verdicts.jsonl of entry " + combined +
                               " fails its recorded SHA-256 — refusing to replay "
                               "corrupt verdicts");
    }

    campaign::CampaignJournal::LoadResult verdicts =
        campaign::CampaignJournal::parseText(verdictsText);
    if (verdicts.skippedLines > 0) {
        // The digest matched, so this is a writer bug, not bit rot — but it
        // is still not replayable.
        throw GoldenStoreError("golden store: unparseable verdict line in entry " + combined);
    }
    entry.verdicts = std::move(verdicts.entries);
    if (entry.verdicts.size() != runs) {
        throw GoldenStoreError("golden store: entry " + combined + " records " +
                               std::to_string(runs) + " runs but holds " +
                               std::to_string(entry.verdicts.size()) + " verdicts");
    }
    return entry;
}

void GoldenStore::put(const CacheKey& key, const std::string& circuitName,
                      const campaign::CampaignReport& report)
{
    const std::string combined = key.combined();

    std::string verdictsText;
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        verdictsText += campaign::CampaignJournal::entryToJson(i, report.runs[i]) + "\n";
    }

    std::string meta = "{\n";
    meta += "  \"version\": 1,\n";
    meta += "  \"circuit\": " + quoted(circuitName) + ",\n";
    meta += "  \"netlist\": " + quoted(key.netlistDigest) + ",\n";
    meta += "  \"stimulus\": " + quoted(key.stimulusDigest) + ",\n";
    meta += "  \"faults\": " + quoted(key.faultDigest) + ",\n";
    meta += "  \"runs\": " + std::to_string(report.runs.size()) + ",\n";
    meta += "  \"verdicts_sha256\": " + quoted(sha256Hex(verdictsText)) + "\n";
    meta += "}\n";

    // The circuit's name pointer to the new entry.
    std::string pointer = "{\n";
    pointer += "  \"circuit\": " + quoted(circuitName) + ",\n";
    pointer += "  \"netlist\": " + quoted(key.netlistDigest) + ",\n";
    pointer += "  \"key\": " + quoted(combined) + "\n";
    pointer += "}\n";

    // Stage the whole entry and the pointer in tmp/, then swap each in with
    // a rename — a killed process never leaves a half-written entry or
    // pointer addressable, and a failed write commits nothing.
    const fs::path staged = fs::path(root_) / "tmp" / combined;
    const fs::path pointerStaged = fs::path(root_) / "tmp" / (sanitizeName(circuitName) +
                                                              ".name.json");
    std::error_code ec;
    fs::remove_all(staged, ec);
    fs::create_directories(staged, ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot stage entry " + combined);
    }
    try {
        util::writeFileOrThrow((staged / "meta.json").string(), meta, "golden store");
        util::writeFileOrThrow((staged / "verdicts.jsonl").string(), verdictsText,
                               "golden store");
        util::writeFileOrThrow(pointerStaged.string(), pointer, "golden store");
    } catch (const std::runtime_error& e) {
        throw GoldenStoreError(e.what());
    }

    const fs::path dir = entryDir(combined);
    fs::create_directories(dir.parent_path(), ec);
    fs::remove_all(dir, ec);
    fs::rename(staged, dir, ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot commit entry " + combined + ": " +
                               ec.message());
    }
    fs::rename(pointerStaged, namePath(circuitName), ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot update name pointer for '" +
                               circuitName + "': " + ec.message());
    }
}

std::optional<NamePointer> GoldenStore::namePointer(const std::string& circuitName) const
{
    const fs::path path = namePath(circuitName);
    if (!fs::exists(path)) {
        return std::nullopt;
    }
    NamePointer p;
    using F = util::JsonField;
    const F fields[] = {
        F::text("circuit", p.circuitName, true),
        F::text("netlist", p.netlistDigest, true),
        F::text("key", p.key, true),
    };
    if (util::readJsonObject(readFileOrThrow(path), fields)) {
        return p;
    }
    throw GoldenStoreError("golden store: malformed name pointer " + path.string());
}

std::optional<StoreEntry> GoldenStore::lookupByName(
    const std::string& circuitName, const std::string& currentNetlistDigest) const
{
    const auto pointer = namePointer(circuitName);
    if (!pointer) {
        return std::nullopt;
    }
    // PRE009: the stored entry was recorded for a different revision of this
    // circuit — replaying it would attribute another design's verdicts here.
    const lint::Report stale = lint::preflightStoredDigest(
        "store:" + circuitName, pointer->netlistDigest, currentNetlistDigest);
    if (stale.count(lint::Severity::Error) > 0) {
        throw lint::PreflightError(stale);
    }

    const fs::path dir = entryDir(pointer->key);
    if (!fs::exists(dir / "meta.json")) {
        throw GoldenStoreError("golden store: name pointer for '" + circuitName +
                               "' references missing entry " + pointer->key);
    }
    CacheKey key;
    using F = util::JsonField;
    const F fields[] = {
        F::text("netlist", key.netlistDigest, true),
        F::text("stimulus", key.stimulusDigest, true),
        F::text("faults", key.faultDigest, true),
    };
    if (util::readJsonObject(readFileOrThrow(dir / "meta.json"), fields)) {
        return lookup(key);
    }
    throw GoldenStoreError("golden store: malformed meta.json in entry " + pointer->key);
}

CachedCampaign runCampaignCached(
    campaign::CampaignRunner& runner, const IngestWorkload& workload, GoldenStore& store,
    const std::function<void(std::size_t, const campaign::RunResult&)>& progress)
{
    const CacheKey key = CacheKey::of(workload);
    CachedCampaign out;
    out.key = key.combined();
    if (auto entry = store.lookup(key)) {
        // Digest-verified hit: rebuild the report from the stored verdicts
        // without simulating anything. reportFromEntries() cross-checks every
        // fault description, so the replay can never silently drift off the
        // fault list that keyed the entry.
        out.report = campaign::reportFromEntries(workload.faults, std::move(entry->verdicts));
        out.hit = true;
        return out;
    }
    out.report = runner.run(workload.faults, progress);
    store.put(key, workload.netlist->name, out.report);
    return out;
}

} // namespace gfi::io
