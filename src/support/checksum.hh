/**
 * @file
 * Block checksums used by the corruption-detection apparatus.
 *
 * The paper (section 3.2) maintains a checksum for every file-cache
 * block, updated by all legitimate write paths; an unintentional store
 * leaves the checksum inconsistent. The hash is XXH64 with seed 0,
 * folded to 32 bits: four independent 64-bit lanes each take one
 * little-endian 8-byte word per step with a multiply-rotate round, so
 * an 8 KiB page costs about a microsecond rather than a dependent
 * multiply per byte. Every round is a bijection of its lane, so a
 * changed bit always changes the final state of its lane; the length
 * is mixed in, so zero runs of different lengths differ.
 * Words are loaded as little-endian values, so a sum is the same on
 * every host and can be stored on disk.
 */

#ifndef RIO_SUPPORT_CHECKSUM_HH
#define RIO_SUPPORT_CHECKSUM_HH

#include <bit>
#include <cstring>
#include <span>

#include "support/types.hh"

namespace rio::support
{

namespace detail
{

inline constexpr u64 kXxP1 = 0x9e3779b185ebca87ull;
inline constexpr u64 kXxP2 = 0xc2b2ae3d27d4eb4full;
inline constexpr u64 kXxP3 = 0x165667b19e3779f9ull;
inline constexpr u64 kXxP4 = 0x85ebca77c2b2ae63ull;
inline constexpr u64 kXxP5 = 0x27d4eb2f165667c5ull;

/** Load the little-endian @p T at @p p, whatever the host order. */
template <typename T>
inline T
loadWordLE(const u8 *p)
{
    T value;
    std::memcpy(&value, p, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
        T swapped = 0;
        for (std::size_t b = 0; b < sizeof(T); ++b)
            swapped = (swapped << 8) | ((value >> (8 * b)) & 0xff);
        value = swapped;
    }
    return value;
}

inline u64
xxRound(u64 acc, u64 input)
{
    acc += input * kXxP2;
    return std::rotl(acc, 31) * kXxP1;
}

inline u64
xxMerge(u64 hash, u64 lane)
{
    hash ^= xxRound(0, lane);
    return hash * kXxP1 + kXxP4;
}

} // namespace detail

/** Checksum a byte span. Never returns 0 (0 means "no checksum"). */
inline u32
checksum32(std::span<const u8> bytes)
{
    using namespace detail;
    const u8 *const p = bytes.data();
    const std::size_t len = bytes.size();
    std::size_t i = 0;
    u64 hash;
    if (len >= 32) {
        u64 v1 = kXxP1 + kXxP2;
        u64 v2 = kXxP2;
        u64 v3 = 0;
        u64 v4 = 0 - kXxP1;
        for (; len - i >= 32; i += 32) {
            v1 = xxRound(v1, loadWordLE<u64>(p + i));
            v2 = xxRound(v2, loadWordLE<u64>(p + i + 8));
            v3 = xxRound(v3, loadWordLE<u64>(p + i + 16));
            v4 = xxRound(v4, loadWordLE<u64>(p + i + 24));
        }
        hash = std::rotl(v1, 1) + std::rotl(v2, 7) +
               std::rotl(v3, 12) + std::rotl(v4, 18);
        hash = xxMerge(hash, v1);
        hash = xxMerge(hash, v2);
        hash = xxMerge(hash, v3);
        hash = xxMerge(hash, v4);
    } else {
        hash = kXxP5;
    }
    hash += len;

    for (; len - i >= 8; i += 8) {
        hash ^= xxRound(0, loadWordLE<u64>(p + i));
        hash = std::rotl(hash, 27) * kXxP1 + kXxP4;
    }
    if (len - i >= 4) {
        hash ^= loadWordLE<u32>(p + i) * kXxP1;
        hash = std::rotl(hash, 23) * kXxP2 + kXxP3;
        i += 4;
    }
    for (; i < len; ++i) {
        hash ^= p[i] * kXxP5;
        hash = std::rotl(hash, 11) * kXxP1;
    }

    hash ^= hash >> 33;
    hash *= kXxP2;
    hash ^= hash >> 29;
    hash *= kXxP3;
    hash ^= hash >> 32;
    const u32 folded = static_cast<u32>(hash ^ (hash >> 32));
    return folded == 0 ? 1u : folded;
}

} // namespace rio::support

#endif // RIO_SUPPORT_CHECKSUM_HH
