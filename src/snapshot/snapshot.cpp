#include "snapshot/snapshot.hpp"

namespace gfi::snapshot {

void SnapshotRegistry::capture(Writer& w) const
{
    w.u64(entries_.size());
    for (const auto& [name, obj] : entries_) {
        w.str(name);
        const std::size_t mark = w.beginBlob();
        obj->captureState(w);
        w.endBlob(mark);
    }
}

void SnapshotRegistry::restore(Reader& r) const
{
    const std::uint64_t n = r.u64();
    if (n != entries_.size()) {
        throw SnapshotFormatError("snapshot: registry entry count mismatch (stream has " +
                                  std::to_string(n) + ", simulator has " +
                                  std::to_string(entries_.size()) + ")");
    }
    for (const auto& [name, obj] : entries_) {
        const std::string_view streamName = r.strView();
        if (streamName != name) {
            throw SnapshotFormatError("snapshot: registry entry '" + std::string(streamName) +
                                      "' does not match simulator entry '" + name + "'");
        }
        Reader sub = r.blobReader();
        obj->restoreState(sub);
        if (!sub.atEnd()) {
            throw SnapshotFormatError("snapshot: registry entry '" + name + "' left " +
                                      std::to_string(sub.remaining()) +
                                      " unread payload bytes");
        }
    }
}

void CheckpointStore::put(const std::string& testbenchId, std::shared_ptr<const Snapshot> snap)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const SimTime t = snap->time;
    auto& slot = store_[testbenchId][t];
    if (slot) {
        stats_.bytes -= slot->bytes.size(); // replacing an existing checkpoint
    }
    ++stats_.puts;
    stats_.bytes += snap->bytes.size();
    slot = std::move(snap);
}

std::shared_ptr<const Snapshot> CheckpointStore::nearestBefore(const std::string& testbenchId,
                                                               SimTime t) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto byTb = store_.find(testbenchId);
    if (byTb == store_.end() || byTb->second.empty()) {
        // Untracked: a campaign without checkpoints (fork mode off) probes the
        // empty store once per run, and counting those as misses would bury
        // the fork-mode signal in noise.
        return nullptr;
    }
    auto it = byTb->second.lower_bound(t); // first entry >= t
    if (it == byTb->second.begin()) {
        ++stats_.misses;
        return nullptr; // every checkpoint is at or after t
    }
    --it;
    ++stats_.hits;
    return it->second;
}

std::size_t CheckpointStore::count(const std::string& testbenchId) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto byTb = store_.find(testbenchId);
    return byTb == store_.end() ? 0 : byTb->second.size();
}

CheckpointStore::Stats CheckpointStore::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void CheckpointStore::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    store_.clear();
    stats_ = Stats{};
}

} // namespace gfi::snapshot
