/**
 * @file
 * The traditional Unix buffer cache: caches metadata blocks
 * (directories, inodes, bitmaps, superblocks, indirect blocks), as in
 * Digital Unix (paper section 2). Regular file data lives in the UBC
 * (os/ubc.hh).
 *
 * Buffer headers are packed structures in the kernel heap — inside
 * simulated memory — so injected faults corrupt them causally; the
 * authoritative page address and flags are re-read through the bus on
 * every use. Host-side lookup tables are only an index and are
 * cross-checked against the in-memory headers (mismatches panic, one
 * of the many consistency checks the paper credits for stopping
 * crashes early).
 *
 * Write-back policy is routed through releaseWrite(): the Rio
 * configuration turns sync/async writes into delayed writes
 * (bwrite/bawrite -> bdwrite, section 2.3), so metadata reaches the
 * disk only on cache overflow.
 */

#ifndef RIO_OS_BUF_HH
#define RIO_OS_BUF_HH

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "os/cacheguard.hh"
#include "os/kconfig.hh"
#include "os/kcopy.hh"
#include "os/kheap.hh"
#include "os/kproc.hh"
#include "os/locks.hh"
#include "sim/disk.hh"
#include "sim/machine.hh"

namespace rio::os
{

/**
 * Receives block images for the compound-transaction journal. The
 * journal owns metadata write-back: home-location copies are written
 * only at checkpoint (write-ahead rule), so a journaled block leaves
 * releaseWrite() clean, not delwri.
 */
class JournalSink
{
  public:
    virtual ~JournalSink() = default;
    virtual void appendMetadata(DevNo dev, BlockNo block,
                                Addr pageAddr) = 0;
    /** File-data block image (ext3 data=journal mode only). */
    virtual void appendData(DevNo dev, BlockNo block,
                            Addr pageAddr) = 0;
    /** ext3 data=journal: route UBC spills through the log. */
    virtual bool wantsDataJournal() const = 0;
    /**
     * Serve a read from the committed-but-not-checkpointed image (or
     * the open transaction) instead of the possibly-stale home copy.
     * @return true if @p out was filled.
     */
    virtual bool fetchBlock(DevNo dev, BlockNo block,
                            std::span<u8> out) = 0;
    /** Commit the open compound transaction now (fsync, sync and
     *  update-daemon path). */
    virtual void commitTransaction() = 0;
    /** Commit, then checkpoint the whole log (sync/unmount path). */
    virtual void checkpointNow() = 0;
};

struct BufStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 diskReads = 0;
    u64 diskWritesSync = 0;
    u64 diskWritesAsync = 0;
    u64 delayedWrites = 0;
    u64 ioRetries = 0;   ///< Extra disk attempts beyond the first.
    u64 ioRemaps = 0;    ///< Bad sectors remapped by the retry path.
    u64 ioAbandoned = 0; ///< Ops given up after the attempt budget.
};

class BufferCache
{
  public:
    using Ref = u32;
    static constexpr Ref kInvalidRef = ~0u;

    /** Header layout (64 bytes, in the kernel heap). */
    static constexpr u32 kMagic = 0xB0FCA4E1;
    static constexpr u64 kHeaderSize = 64;
    /** @{ Field offsets within a header. */
    static constexpr u64 kOffMagic = 0;
    static constexpr u64 kOffDev = 4;
    static constexpr u64 kOffBlkno = 8;
    static constexpr u64 kOffFlags = 12;
    static constexpr u64 kOffData = 16;
    static constexpr u64 kOffSize = 24;
    static constexpr u64 kOffRef = 28;
    static constexpr u64 kOffLastUse = 32;
    static constexpr u64 kOffDirtied = 40;
    /** @} */
    /** @{ Flag bits. */
    static constexpr u32 kValid = 1;
    static constexpr u32 kDirty = 2;
    static constexpr u32 kDelwri = 4;
    static constexpr u32 kBusy = 8;
    /** @} */

    BufferCache(sim::Machine &machine, KProcTable &procs,
                KernelHeap &heap, KCopy &kcopy, LockTable &locks,
                const KernelConfig &config);

    /**
     * Allocate headers and initialize the pool.
     * @param guard Rio hooks (or a NullCacheGuard).
     * @param disk The device this cache writes back to.
     */
    void init(CacheGuard &guard, sim::Disk &disk);

    /** Get a buffer for (dev, block) without reading it (overwrite). */
    Ref getblk(DevNo dev, BlockNo block);

    /** Get a buffer and ensure it holds the on-disk contents. */
    Ref bread(DevNo dev, BlockNo block);

    /** Release a buffer unmodified. */
    void brelse(Ref ref);

    /** Release after modification, synchronously written to disk. */
    void bwrite(Ref ref);

    /** Release after modification, asynchronously written. */
    void bawrite(Ref ref);

    /** Release after modification, delayed (write-back later). */
    void bdwrite(Ref ref);

    /**
     * Release a modified metadata buffer according to the kernel's
     * MetadataPolicy (this is where Rio turns bwrite into bdwrite).
     */
    void releaseWrite(Ref ref);

    /**
     * RAII write window: opens the Rio protection/shadow window for
     * the buffer's page, exposes stores, closes on destruction and
     * marks the buffer dirty.
     */
    class WriteWindow
    {
      public:
        WriteWindow(BufferCache &cache, Ref ref);
        /** noexcept(false): closing the window may crash the machine
         * (registry consistency checks); see LockTable::Guard. */
        ~WriteWindow() noexcept(false);
        WriteWindow(const WriteWindow &) = delete;
        WriteWindow &operator=(const WriteWindow &) = delete;

        void store8(u64 off, u8 value);
        void store16(u64 off, u16 value);
        void store32(u64 off, u32 value);
        void store64(u64 off, u64 value);
        void copyIn(u64 off, std::span<const u8> data);
        void zero(u64 off, u64 n);

      private:
        BufferCache &cache_;
        Ref ref_;
        Addr page_;
    };

    /** @{ Reads from the cached block. */
    u8 read8(Ref ref, u64 off);
    u16 read16(Ref ref, u64 off);
    u32 read32(Ref ref, u64 off);
    u64 read64(Ref ref, u64 off);
    void readData(Ref ref, u64 off, std::span<u8> out);
    /** @} */

    /**
     * Write back delayed-write buffers (update daemon, sync, fsync).
     * @param sync Wait for each write to complete.
     */
    void flushDelwri(bool sync);

    /** Number of delayed-write buffers currently held. */
    u64 delwriCount();

    /** Drop every buffer of @p dev (unmount). Dirty ones are lost. */
    void invalidateDev(DevNo dev);

    /**
     * Drop the cached copy of one block (the block was freed; a
     * stale cached copy must not be found by a later getblk).
     */
    void invalidateBlock(DevNo dev, BlockNo block);

    void setJournalSink(JournalSink *sink) { journal_ = sink; }

    /**
     * Called (once) when a metadata write-back fails for good — the
     * file system uses this to degrade to a read-only remount rather
     * than lose updates silently.
     */
    void setDegradeHandler(std::function<void()> handler)
    {
        degrade_ = std::move(handler);
    }
    /** True once a persistent write failure triggered the handler. */
    bool degraded() const { return degraded_; }

    const BufStats &stats() const { return stats_; }

    /** @{ Fault-injection surface. */
    Addr headerArena() const { return arena_; }
    u64 headerCount() const { return numBufs_; }
    /** Address of a random live header (pointer-corruption target). */
    Addr randomLiveHeaderAddr(support::Rng &rng) const;
    /** @} */

    /** Physical page address currently recorded for @p ref. */
    Addr pageAddr(Ref ref);

  private:
    friend class WriteWindow;

    u32 flags(Ref ref);
    void setFlags(Ref ref, u32 flags);
    void checkHeader(Ref ref, DevNo dev, BlockNo block);
    Ref allocateBuf(DevNo dev, BlockNo block);
    Ref evictOne();
    void diskWrite(Ref ref, bool sync);
    void diskFill(Ref ref);
    CacheTag tagOf(Ref ref);

    sim::Machine &machine_;
    KProcTable &procs_;
    KernelHeap &heap_;
    KCopy &kcopy_;
    LockTable &locks_;
    const KernelConfig &config_;
    CacheGuard *guard_ = nullptr;
    sim::Disk *disk_ = nullptr;
    JournalSink *journal_ = nullptr;
    std::function<void()> degrade_;
    bool degraded_ = false;

    Addr arena_ = 0;
    Addr poolBase_ = 0;
    u64 numBufs_ = 0;
    LockId bufLock_ = 0;

    std::unordered_map<u64, Ref> index_; ///< (dev,block) -> ref.
    std::vector<Ref> freeList_;
    std::vector<u8> staging_;
    BufStats stats_;

    static u64
    key(DevNo dev, BlockNo block)
    {
        return (static_cast<u64>(dev) << 32) | block;
    }

    Addr headerAddr(Ref ref) const { return arena_ + ref * kHeaderSize; }
};

} // namespace rio::os

#endif // RIO_OS_BUF_HH
