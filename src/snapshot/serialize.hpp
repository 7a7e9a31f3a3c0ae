#pragma once
// Byte-stable binary serialization for simulator snapshots.
//
// The format is deliberately primitive so that two captures of identical
// simulator state produce identical bytes on any host:
//   - fixed-width little-endian integers (no varint, no host-order writes);
//   - doubles bit-cast to uint64 (round-trips NaN payloads and -0.0 exactly);
//   - strings and nested blobs length-prefixed with uint64 counts;
//   - no padding, no alignment, no map iteration — every writer emits fields
//     in a fixed declared order.
// A snapshot stream starts with an 8-byte magic plus a format version; readers
// reject foreign or future data with SnapshotFormatError instead of
// misinterpreting it.

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gfi::snapshot {

/// Malformed, truncated or version-mismatched snapshot data.
class SnapshotFormatError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Bumped on any layout change of the serialized state.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Stream magic: identifies a gfi snapshot byte stream.
inline constexpr char kMagic[8] = {'G', 'F', 'I', 'S', 'N', 'A', 'P', '\0'};

/// Appends primitive values to a byte buffer in the canonical encoding.
class Writer {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i) {
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void u64(std::uint64_t v)
    {
        const std::size_t at = bytes_.size();
        bytes_.resize(at + 8);
        put64(at, v);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v)
    {
        std::uint64_t raw = 0;
        static_assert(sizeof raw == sizeof v);
        std::memcpy(&raw, &v, sizeof raw);
        u64(raw);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string& s)
    {
        u64(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    /// Opens a length-prefixed nested block (isolates one component's
    /// payload so a buggy writer/reader pair cannot silently shift every
    /// later field). Write the payload in place, then pass the returned mark
    /// to endBlob(), which fills in the length.
    [[nodiscard]] std::size_t beginBlob()
    {
        u64(0); // length, patched by endBlob()
        return bytes_.size();
    }

    void endBlob(std::size_t mark) { put64(mark - 8, bytes_.size() - mark); }

    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
    /// Empties the buffer and keeps its storage (a reused scratch writer).
    void clear() noexcept { bytes_.clear(); }

private:
    void put64(std::size_t at, std::uint64_t v)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(bytes_.data() + at, &v, sizeof v);
        } else {
            for (int i = 0; i < 8; ++i) {
                bytes_[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
            }
        }
    }

    std::vector<std::uint8_t> bytes_;
};

/// Reads the canonical encoding back; throws SnapshotFormatError on underrun.
class Reader {
public:
    Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

    explicit Reader(const std::vector<std::uint8_t>& b) : Reader(b.data(), b.size()) {}

    std::uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        }
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, data_ + pos_, sizeof v);
            pos_ += 8;
        } else {
            for (int i = 0; i < 8; ++i) {
                v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
            }
        }
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double f64()
    {
        const std::uint64_t raw = u64();
        double v = 0;
        std::memcpy(&v, &raw, sizeof v);
        return v;
    }

    bool boolean() { return u8() != 0; }

    std::string str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_) + pos_, n);
        pos_ += n;
        return s;
    }

    /// str() without the copy; valid as long as the underlying bytes.
    std::string_view strView()
    {
        const std::uint64_t n = u64();
        need(n);
        const std::string_view s(reinterpret_cast<const char*>(data_) + pos_, n);
        pos_ += n;
        return s;
    }

    /// The next nested block (Writer::beginBlob) as a reader over the same
    /// bytes; valid as long as they are.
    Reader blobReader()
    {
        const std::uint64_t n = u64();
        need(n);
        const Reader sub(data_ + pos_, n);
        pos_ += n;
        return sub;
    }

    [[nodiscard]] bool atEnd() const noexcept { return pos_ == size_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

private:
    void need(std::uint64_t n) const
    {
        if (n > size_ - pos_) {
            throw SnapshotFormatError("snapshot: truncated stream (need " + std::to_string(n) +
                                      " bytes, have " + std::to_string(size_ - pos_) + ")");
        }
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/// Writes the stream magic + format version (start of every snapshot).
inline void writeHeader(Writer& w)
{
    for (char c : kMagic) {
        w.u8(static_cast<std::uint8_t>(c));
    }
    w.u32(kFormatVersion);
}

/// Validates the magic + version; throws SnapshotFormatError on mismatch.
inline void readHeader(Reader& r)
{
    for (char c : kMagic) {
        if (r.u8() != static_cast<std::uint8_t>(c)) {
            throw SnapshotFormatError("snapshot: bad magic (not a gfi snapshot stream)");
        }
    }
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion) {
        throw SnapshotFormatError("snapshot: format version " + std::to_string(version) +
                                  " unsupported (expected " + std::to_string(kFormatVersion) +
                                  ")");
    }
}

} // namespace gfi::snapshot
