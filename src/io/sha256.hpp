#pragma once
// Self-contained SHA-256 (FIPS 180-4) for the content-addressed golden
// store: netlists, stimulus schedules, fault lists and campaign verdicts are
// all identified by their digest, and replayed results are verified against
// the stored digest before anyone trusts them (the judge contract). No
// external crypto dependency — campaigns must hash identically on every
// platform the simulator builds on.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace gfi::io {

namespace detail {

/// Absorbs @p blocks consecutive 64-byte blocks of @p data into @p state.
using Sha256Blocks = void (*)(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// The portable FIPS 180-4 block function.
[[nodiscard]] Sha256Blocks sha256ScalarBlocks() noexcept;

/// The x86 SHA extensions (SHA-NI) block function, or nullptr when this
/// build or this CPU lacks them.
[[nodiscard]] Sha256Blocks sha256HardwareBlocks() noexcept;

} // namespace detail

/// Incremental SHA-256 hasher. Full blocks go through the SHA-NI block
/// function when the CPU has one (checked once per process), else through
/// the portable one; both give the same digest.
class Sha256 {
public:
    Sha256() noexcept;

    /// A hasher on a chosen block function, so a test can hold the two
    /// against each other; everything else uses the default constructor.
    explicit Sha256(detail::Sha256Blocks blocks) noexcept : blocks_(blocks) { reset(); }

    /// Restarts the hash from the initial state.
    void reset() noexcept;

    /// Absorbs @p data.
    void update(const void* data, std::size_t len) noexcept;
    void update(std::string_view s) noexcept { update(s.data(), s.size()); }

    /// Finalizes and returns the 32-byte digest. The hasher must be reset()
    /// before further use.
    [[nodiscard]] std::array<std::uint8_t, 32> finish() noexcept;

    /// Finalizes and returns the digest as 64 lowercase hex characters.
    [[nodiscard]] std::string finishHex();

private:
    detail::Sha256Blocks blocks_;
    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::uint64_t totalBytes_ = 0;
    std::size_t buffered_ = 0;
};

/// One-shot digest of @p s as 64 lowercase hex characters.
[[nodiscard]] std::string sha256Hex(std::string_view s);

/// True when @p s looks like a SHA-256 hex digest (64 hex characters).
[[nodiscard]] bool looksLikeSha256(std::string_view s) noexcept;

} // namespace gfi::io
