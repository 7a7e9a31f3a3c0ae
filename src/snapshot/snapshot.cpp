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

void SnapshotRegistry::digest(LayoutDigest& d) const
{
    d.mix(entries_.size());
    for (const auto& entry : entries_) {
        d.add(entry.first);
    }
}

void SnapshotRegistry::restore(Reader& r, bool namesChecked) const
{
    const std::uint64_t n = r.u64();
    if (n != entries_.size()) {
        throw SnapshotFormatError("snapshot: registry entry count mismatch (stream has " +
                                  std::to_string(n) + ", simulator has " +
                                  std::to_string(entries_.size()) + ")");
    }
    for (const auto& [name, obj] : entries_) {
        const std::string_view streamName = r.strView();
        if (!namesChecked && streamName != name) {
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

} // namespace gfi::snapshot
