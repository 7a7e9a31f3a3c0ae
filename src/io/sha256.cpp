#include "io/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gfi::io {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants{
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept
{
    return (x >> n) | (x << (32 - n));
}

void scalarBlocks(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                  std::size_t blocks) noexcept
{
    for (; blocks > 0; --blocks, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
                   (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
                   static_cast<std::uint32_t>(data[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0];
        std::uint32_t b = state[1];
        std::uint32_t c = state[2];
        std::uint32_t d = state[3];
        std::uint32_t e = state[4];
        std::uint32_t f = state[5];
        std::uint32_t g = state[6];
        std::uint32_t h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 =
                h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)
// SHA-NI (Intel SHA extensions): sha256rnds2 runs two rounds on the state
// held as ABEF/CDGH register pairs; sha256msg1/msg2 extend the message
// schedule four words at a time. Each pass of the unrolled loop below is
// four rounds: message group i (words 4i..4i+3) plus its round constants.
__attribute__((target("sha,sse4.1,ssse3"))) void
hardwareBlocks(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
               std::size_t blocks) noexcept
{
    // Big-endian words: reverse the bytes of each 32-bit lane.
    const __m128i byteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])); // DCBA
    __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])); // HGFE
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                                          // CDAB
    cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                        // EFGH
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                // ABEF
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                     // CDGH

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abefSaved = abef;
        const __m128i cdghSaved = cdgh;
        __m128i msg[4];
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            __m128i& cur = msg[i % 4];
            if (i < 4) {
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byteSwap);
            }
            const auto* roundConstants =
                reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * i);
            __m128i k = _mm_add_epi32(cur, _mm_loadu_si128(roundConstants));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
            if (i >= 3 && i < 15) {
                // Finish group i + 1: add words 4i-3..4i from groups i-1/i,
                // then mix in group i.
                __m128i& next = msg[(i + 1) % 4];
                next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(i + 3) % 4], 4));
                next = _mm_sha256msg2_epu32(next, cur);
            }
            k = _mm_shuffle_epi32(k, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, k);
            if (i >= 1 && i < 13) {
                // Start group i + 3 from groups i - 1 and i.
                __m128i& prev = msg[(i + 3) % 4];
                prev = _mm_sha256msg1_epu32(prev, cur);
            }
        }
        abef = _mm_add_epi32(abef, abefSaved);
        cdgh = _mm_add_epi32(cdgh, cdghSaved);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
    abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}
#endif

/// The block function every default-constructed hasher uses, picked once.
detail::Sha256Blocks selectedBlocks() noexcept
{
    static const detail::Sha256Blocks chosen = [] {
        const detail::Sha256Blocks hw = detail::sha256HardwareBlocks();
        return hw != nullptr ? hw : detail::sha256ScalarBlocks();
    }();
    return chosen;
}

} // namespace

namespace detail {

Sha256Blocks sha256ScalarBlocks() noexcept
{
    return &scalarBlocks;
}

Sha256Blocks sha256HardwareBlocks() noexcept
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
        __builtin_cpu_supports("ssse3")) {
        return &hardwareBlocks;
    }
#endif
    return nullptr;
}

} // namespace detail

Sha256::Sha256() noexcept : Sha256(selectedBlocks()) {}

void Sha256::reset() noexcept
{
    state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
              0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    totalBytes_ = 0;
    buffered_ = 0;
}

void Sha256::update(const void* data, std::size_t len) noexcept
{
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    totalBytes_ += len;
    while (len > 0) {
        if (buffered_ == 0 && len >= 64) {
            const std::size_t blocks = len / 64;
            blocks_(state_, bytes, blocks);
            bytes += 64 * blocks;
            len -= 64 * blocks;
            continue;
        }
        const std::size_t take = std::min(len, 64 - buffered_);
        std::memcpy(buffer_.data() + buffered_, bytes, take);
        buffered_ += take;
        bytes += take;
        len -= take;
        if (buffered_ == 64) {
            blocks_(state_, buffer_.data(), 1);
            buffered_ = 0;
        }
    }
}

std::array<std::uint8_t, 32> Sha256::finish() noexcept
{
    const std::uint64_t bitLength = totalBytes_ * 8;
    const std::uint8_t pad = 0x80;
    update(&pad, 1);
    const std::uint8_t zero = 0;
    while (buffered_ != 56) {
        update(&zero, 1);
    }
    std::uint8_t lenBytes[8];
    for (int i = 0; i < 8; ++i) {
        lenBytes[i] = static_cast<std::uint8_t>(bitLength >> (56 - 8 * i));
    }
    // update() counts these 8 bytes into totalBytes_, but bitLength was
    // latched above so the encoded length stays correct.
    update(lenBytes, 8);

    std::array<std::uint8_t, 32> digest{};
    for (int i = 0; i < 8; ++i) {
        digest[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
        digest[static_cast<std::size_t>(4 * i + 1)] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
        digest[static_cast<std::size_t>(4 * i + 2)] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
        digest[static_cast<std::size_t>(4 * i + 3)] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
    }
    return digest;
}

std::string Sha256::finishHex()
{
    static const char* hex = "0123456789abcdef";
    const std::array<std::uint8_t, 32> digest = finish();
    std::string out;
    out.reserve(64);
    for (std::uint8_t byte : digest) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xF]);
    }
    return out;
}

std::string sha256Hex(std::string_view s)
{
    Sha256 h;
    h.update(s);
    return h.finishHex();
}

bool looksLikeSha256(std::string_view s) noexcept
{
    if (s.size() != 64) {
        return false;
    }
    for (char c : s) {
        const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
        if (!hex) {
            return false;
        }
    }
    return true;
}

} // namespace gfi::io
