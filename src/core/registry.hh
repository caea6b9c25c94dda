/**
 * @file
 * The Rio registry: the metadata that makes the warm reboot possible
 * (paper section 2.2). One 64-byte entry per file-cache page (the
 * paper quotes 40 bytes per 8 KB page; we round up for alignment),
 * living in the protected Registry region of physical memory, holding
 * everything needed to find, identify and restore the page after a
 * crash: physical address, file identity (device + inode + offset)
 * or disk block (metadata), valid size, dirty bit, the detection
 * checksum, and the shadow pointer used for atomic metadata updates.
 */

#ifndef RIO_CORE_REGISTRY_HH
#define RIO_CORE_REGISTRY_HH

#include <optional>
#include <span>
#include <vector>

#include "sim/physmem.hh"
#include "support/types.hh"

namespace rio::core
{

struct RegistryLayout
{
    static constexpr u32 kMagic = 0x4E910757;
    static constexpr u64 kEntrySize = 64;

    /** @{ Field offsets within an entry. */
    static constexpr u64 kOffMagic = 0;
    static constexpr u64 kOffState = 4;
    static constexpr u64 kOffPhysAddr = 8;
    static constexpr u64 kOffKind = 16;
    static constexpr u64 kOffDev = 20;
    static constexpr u64 kOffIno = 24;
    static constexpr u64 kOffOffset = 32;
    static constexpr u64 kOffDiskBlock = 40;
    static constexpr u64 kOffSize = 44;
    static constexpr u64 kOffDirty = 48;
    static constexpr u64 kOffChecksum = 52;
    static constexpr u64 kOffShadow = 56;
    /** @} */

    /** @{ States. */
    static constexpr u32 kStateFree = 0;
    static constexpr u32 kStateActive = 1;
    static constexpr u32 kStateChanging = 2;
    /** @} */

    /** @{ Kinds. */
    static constexpr u32 kKindData = 0;
    static constexpr u32 kKindMetadata = 1;
    /** @} */

    /** Shadow slots reserved at the end of the registry region. */
    static constexpr u64 kShadowPages = 4;
};

/**
 * Location authenticator folded into every stored page checksum.
 *
 * A plain content checksum covers *what* a page holds, not *where*
 * it belongs: the registry-fuzz sweep (tests/registry_fuzz_corpus.hh)
 * found seeds that flip an entry's diskBlock into another valid
 * block while the content checksum still matches, redirecting a
 * perfectly good page into the wrong location at restore time. The
 * fix is to bind the checksum to the claimed location: the stored
 * value is checksum32(content) XOR a mix of the diskBlock field, so
 * a corrupted diskBlock fails verification exactly like corrupted
 * content and the hardened policy quarantines it.
 */
constexpr u32
checksumLocationMix(BlockNo diskBlock)
{
    u64 x = static_cast<u64>(diskBlock) + 0x9E3779B97F4A7C15ull;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return static_cast<u32>(x ^ (x >> 32));
}

/**
 * Bind a content checksum to the disk block it claims. Preserves the
 * "0 means no checksum" sentinel on the output (the 2^-32 collision
 * costs one page an unverified-but-harmless restore, same as a page
 * whose checksum was never maintained). Verify by re-binding the
 * candidate content sum and comparing in bound space.
 */
constexpr u32
bindChecksum(u32 contentSum, BlockNo diskBlock)
{
    const u32 bound = contentSum ^ checksumLocationMix(diskBlock);
    return bound == 0 ? 1u : bound;
}

/** A decoded registry entry (host-side view). */
struct RegistryEntry
{
    u32 state = RegistryLayout::kStateFree;
    Addr physAddr = 0;
    u32 kind = RegistryLayout::kKindData;
    DevNo dev = 0;
    InodeNo ino = 0;
    u64 offset = 0;
    BlockNo diskBlock = 0;
    u32 size = 0;
    bool dirty = false;
    u32 checksum = 0;
    Addr shadowAddr = 0;
};

/**
 * Decode one entry from raw bytes (from a memory dump). Returns
 * nullopt for free slots and entries whose magic is corrupted.
 */
std::optional<RegistryEntry>
decodeRegistryEntry(std::span<const u8> raw);

/**
 * A surviving physical-memory image as recovery reads it. The bytes
 * stay where they are: physical memory itself on a fresh warm reboot,
 * the read-back of the swap dump on a resumed one. Only the rio-nv
 * graft writes, and only into the Registry region (entries and
 * shadow pages), so writableRegistry() takes a private copy of that
 * region on its first call, and reads of the region come from the
 * copy from then on. The image never changes under the caller.
 */
class RecoveryImage
{
  public:
    /** @p bytes (all of @p mem's regions) must outlive this object
     *  and stay unchanged. */
    RecoveryImage(std::span<const u8> bytes, const sim::PhysMem &mem);

    u64 size() const { return bytes_.size(); }

    /**
     * Bytes [addr, addr + n), which must lie inside size(). A range
     * that straddles the edge of a copied Registry region is stitched
     * into a scratch buffer, valid until the next call.
     */
    std::span<const u8> bytes(Addr addr, u64 n) const;

    /** The Registry region: its copy if taken. */
    std::span<const u8> registry() const;

    /** The Registry region, copied out of the image on first call. */
    std::span<u8> writableRegistry();

  private:
    std::span<const u8> bytes_;
    Addr regBase_ = 0;
    u64 regSize_ = 0;
    std::vector<u8> regCopy_;
    mutable std::vector<u8> scratch_;
};

/**
 * Parse the registry out of a physical-memory image, validating
 * each entry against the machine's region map.
 */
struct RegistryImage
{
    std::vector<RegistryEntry> entries;
    u64 corruptEntries = 0; ///< Bad magic/state/address: skipped.
    u64 freeEntries = 0;
};

RegistryImage parseRegistry(const RecoveryImage &image,
                            const sim::PhysMem &mem);

} // namespace rio::core

#endif // RIO_CORE_REGISTRY_HH
