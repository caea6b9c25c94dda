/**
 * @file
 * The Unified Buffer Cache: caches regular-file data pages, as in
 * Digital Unix. To conserve TLB slots the UBC is not mapped into the
 * kernel's virtual address space; the kernel reaches it through KSEG
 * *physical* addresses (paper section 2) — which is precisely why
 * Rio must set the ABOX bit forcing KSEG through the TLB before page
 * protection means anything.
 *
 * Page headers live in the kernel heap (fault-corruptible); the pool
 * pages live in the UbcPool region. Write-back is pulled by the
 * policy layer (Vfs/update daemon) and pushed only on eviction, so in
 * the Rio configuration dirty file data stays in memory indefinitely.
 */

#ifndef RIO_OS_UBC_HH
#define RIO_OS_UBC_HH

#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "os/cacheguard.hh"
#include "os/kconfig.hh"
#include "os/kcopy.hh"
#include "os/kheap.hh"
#include "os/kproc.hh"
#include "os/locks.hh"
#include "sim/machine.hh"

namespace rio::os
{

/** How the UBC reads and writes file pages on the device. */
class BackingStore
{
  public:
    virtual ~BackingStore() = default;

    /**
     * Fill @p pagePhys with file page (@p dev, @p ino, @p pageIdx).
     * @return Number of valid bytes placed on the page.
     */
    virtual u32 fillPage(DevNo dev, InodeNo ino, u64 pageIdx,
                         Addr pagePhys) = 0;

    /** Write @p validBytes of the page back to the device. */
    virtual void spillPage(DevNo dev, InodeNo ino, u64 pageIdx,
                           Addr pagePhys, u32 validBytes,
                           bool sync) = 0;
};

struct UbcStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 fills = 0;
    u64 spills = 0;
};

class Ubc
{
  public:
    using Ref = u32;
    static constexpr Ref kInvalidRef = ~0u;

    static constexpr u32 kMagic = 0x0BC0FFEE;
    static constexpr u64 kHeaderSize = 64;
    /** @{ Header field offsets. */
    static constexpr u64 kOffMagic = 0;
    static constexpr u64 kOffDev = 4;
    static constexpr u64 kOffIno = 8;
    static constexpr u64 kOffPageIdx = 12;
    static constexpr u64 kOffFlags = 16;
    static constexpr u64 kOffSize = 20;
    static constexpr u64 kOffData = 24;
    static constexpr u64 kOffLastUse = 32;
    static constexpr u64 kOffDirtied = 40;
    /** @} */
    /** @{ Flags. */
    static constexpr u32 kValid = 1;
    static constexpr u32 kDirty = 2;
    /** @} */

    Ubc(sim::Machine &machine, KProcTable &procs, KernelHeap &heap,
        KCopy &kcopy, LockTable &locks, const KernelConfig &config);

    void init(CacheGuard &guard, BackingStore &backing);

    /**
     * Look up or create the cache page for (@p dev, @p ino,
     * @p pageIdx). If @p fill, a missing page is read from the
     * backing store; otherwise it starts zeroed (about to be fully
     * overwritten or extending the file).
     */
    Ref getPage(DevNo dev, InodeNo ino, u64 pageIdx, bool fill);

    /** Copy user data onto the page and mark it dirty. */
    void write(Ref ref, u64 off, std::span<const u8> data,
               u32 newValidBytes);

    /** Copy page contents out to a user buffer. */
    void read(Ref ref, u64 off, std::span<u8> out);

    u32 validBytes(Ref ref);

    /** Write back all dirty pages of one file. */
    void flushFile(DevNo dev, InodeNo ino, bool sync);

    /** Write back every dirty page (update daemon / sync). */
    void flushAll(bool sync);

    /** Dirty bytes currently cached for one file. */
    u64 dirtyBytesOfFile(DevNo dev, InodeNo ino);

    /** Drop all pages of a file (remove); dirty data is discarded. */
    void invalidateFile(DevNo dev, InodeNo ino);

    /**
     * Drop every page (cache-cold experiment setup). All pages must
     * be clean; call flushAll first.
     */
    void invalidateAll();

    /** Drop pages past @p newSize and trim the boundary page. */
    void truncateFile(DevNo dev, InodeNo ino, u64 newSize);

    u64 dirtyPages();

    const UbcStats &stats() const { return stats_; }

    /** @{ Fault-injection surface. */
    Addr headerArena() const { return arena_; }
    u64 headerCount() const { return numPages_; }
    Addr randomLiveHeaderAddr(support::Rng &rng) const;
    /** @} */

    /** Physical page address of @p ref (from the in-memory header). */
    Addr pagePhys(Ref ref);

  private:
    static u64
    pageKey(DevNo dev, InodeNo ino, u64 pageIdx)
    {
        return (static_cast<u64>(dev) << 56) |
               (static_cast<u64>(ino) << 24) | pageIdx;
    }

    static u64
    fileKey(DevNo dev, InodeNo ino)
    {
        return (static_cast<u64>(dev) << 32) | ino;
    }

    Addr headerAddr(Ref ref) const { return arena_ + ref * kHeaderSize; }
    u32 flags(Ref ref);
    void setFlags(Ref ref, u32 value);
    void checkHeader(Ref ref, DevNo dev, InodeNo ino, u64 pageIdx);
    void evictOne();
    void spill(Ref ref, bool sync);
    void dropPage(Ref ref);

    sim::Machine &machine_;
    KProcTable &procs_;
    KernelHeap &heap_;
    KCopy &kcopy_;
    LockTable &locks_;
    const KernelConfig &config_;
    CacheGuard *guard_ = nullptr;
    BackingStore *backing_ = nullptr;

    Addr arena_ = 0;
    Addr poolBase_ = 0;
    u64 numPages_ = 0;
    LockId ubcLock_ = 0;

    std::unordered_map<u64, Ref> index_;
    std::unordered_map<u64, std::unordered_set<Ref>> byFile_;
    /**
     * Refs that may be dirty: a superset of the pages whose header
     * has kDirty set by write(). flushAll() and dirtyPages() walk
     * only these refs; the header flags stay authoritative.
     */
    std::set<Ref> dirty_;
    std::vector<Ref> freeList_;
    UbcStats stats_;
};

} // namespace rio::os

#endif // RIO_OS_UBC_HH
