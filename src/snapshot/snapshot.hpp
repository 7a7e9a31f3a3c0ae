#pragma once
// Snapshot subsystem: versioned, deterministic capture/restore of full
// mixed-signal simulator state, behind the campaign engine's fork-from-golden
// mode and its pooled testbenches.
//
// Capture walks the simulator in a fixed structural order (scheduler, then
// signals in creation order, then components in registration order, then
// bridges, then the analog solver) and serializes every piece through
// snapshot::Writer, so identical state yields identical bytes. Restore never
// replays instrumentation setters — those propagate (schedule transactions)
// and would perturb the delta-cycle count; instead every stateful component
// implements Snapshottable and writes its members back directly, re-arming
// any self-scheduled actions from recorded fire times.

#include "sim/time.hpp"
#include "snapshot/serialize.hpp"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfi::snapshot {

/// Implemented by every stateful simulation object that participates in
/// snapshot capture/restore. captureState() must serialize all mutable
/// members (in a fixed order); restoreState() must read them back in the same
/// order and write them directly — never through setters that propagate —
/// re-arming self-scheduled actions from recorded fire times where needed.
class Snapshottable {
public:
    virtual ~Snapshottable() = default;

    virtual void captureState(Writer& w) const = 0;
    virtual void restoreState(Reader& r) = 0;
};

/// One captured simulator state: the byte stream plus the capture times
/// needed to pick a checkpoint and to find where a resumed run's traces
/// leave golden's, without parsing.
struct Snapshot {
    SimTime time = 0;       ///< digital kernel time at capture (fs)
    double analogTime = 0;  ///< analog solver time at capture (s); 0 if no analog
    /// LayoutDigest of every entry name in the stream, in stream order, set
    /// at capture (0 = unknown). In memory only: the bytes do not carry it.
    std::uint64_t layout = 0;
    std::vector<std::uint8_t> bytes;
};

/// FNV-1a over length-tagged names: the layout a snapshot stream names its
/// entries by. A restore whose target has the snapshot's digest skips the
/// per-entry name compares; any other restore walks and checks every name.
class LayoutDigest {
public:
    void add(std::string_view name) noexcept
    {
        mix(name.size());
        for (const char c : name) {
            byte(static_cast<unsigned char>(c));
        }
    }
    void mix(std::uint64_t v) noexcept
    {
        for (int i = 0; i < 8; ++i) {
            byte(static_cast<unsigned char>(v >> (8 * i)));
        }
    }
    /// Never 0, which means "unknown".
    [[nodiscard]] std::uint64_t value() const noexcept { return h_ != 0 ? h_ : 1; }

private:
    void byte(unsigned char c) noexcept
    {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    std::uint64_t h_ = 1469598103934665603ull;
};

/// Named Snapshottables outside the digital component list (AMS bridges).
/// Capture/restore iterate registration order; each payload is length-
/// prefixed and name-checked so a schema drift fails loudly.
class SnapshotRegistry {
public:
    void add(std::string name, Snapshottable* s) { entries_.emplace_back(std::move(name), s); }

    void capture(Writer& w) const;

    /// Reads capture()'s stream back. With @p namesChecked (the caller
    /// matched the snapshot's layout digest) each name is stepped over;
    /// otherwise every name is compared and a mismatch throws.
    void restore(Reader& r, bool namesChecked = false) const;

    /// Adds the entry count and every entry name to @p d.
    void digest(LayoutDigest& d) const;

    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

private:
    std::vector<std::pair<std::string, Snapshottable*>> entries_;
};

} // namespace gfi::snapshot
