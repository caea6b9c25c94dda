/**
 * @file
 * The interface between the file cache (buffer cache + UBC) and Rio.
 *
 * When Rio is active, rio::core::RioSystem implements this interface:
 * it maintains the registry entry for every file-cache page, toggles
 * page protection around legitimate writes, keeps per-page checksums
 * (the detection apparatus of section 3.2), and applies shadow-page
 * atomicity to metadata updates (section 2.3). Non-Rio systems use
 * NullCacheGuard.
 *
 * The contract: the file cache calls install() when a page starts
 * caching new content, brackets *every* legitimate content change
 * with beginWrite()/endWrite(), reports dirty-state transitions, and
 * calls invalidate() when the page stops caching anything. A page's
 * content changes only by bus store or by DMA through os::dmaWrite:
 * Rio may owe a page's checksum past endWrite (core/rio.hh) and must
 * see, through the bus's watch, every change to the bytes it covers.
 */

#ifndef RIO_OS_CACHEGUARD_HH
#define RIO_OS_CACHEGUARD_HH

#include "support/types.hh"

namespace rio::os
{

enum class CacheKind : u8
{
    Metadata, ///< Buffer cache block with a disk address.
    Data,     ///< UBC page identified by (dev, inode, offset).
};

/** Identity of the cached content on one physical page. */
struct CacheTag
{
    CacheKind kind = CacheKind::Data;
    DevNo dev = 0;
    InodeNo ino = 0;       ///< Data pages only.
    u64 offset = 0;        ///< Data: byte offset within the file.
    BlockNo diskBlock = 0; ///< Metadata: disk block number.
    u32 size = 0;          ///< Valid bytes on the page.
};

class CacheGuard
{
  public:
    virtual ~CacheGuard() = default;

    /**
     * The kernel is booting and has just initialized the MMU
     * (identity page table, flushed TLB). Rio uses this to zero the
     * registry and apply protection *after* the page table exists
     * but before any page is cached.
     */
    virtual void kernelBooting() {}

    /** @p page (physical, page-aligned) now caches @p tag. */
    virtual void install(Addr page, const CacheTag &tag) = 0;

    /** Dirty-state change for @p page. */
    virtual void setDirty(Addr page, bool dirty) = 0;

    /** @p page no longer caches anything. */
    virtual void invalidate(Addr page) = 0;

    /**
     * A legitimate write to @p page is about to happen: open the
     * protection window, mark the page "changing", and (for critical
     * metadata) divert the registry to a shadow copy.
     */
    virtual void beginWrite(Addr page) = 0;

    /** The write finished; @p validBytes are now meaningful. */
    virtual void endWrite(Addr page, u32 validBytes) = 0;
};

/** No-op guard for the non-Rio configurations. */
class NullCacheGuard : public CacheGuard
{
  public:
    void install(Addr, const CacheTag &) override {}
    void setDirty(Addr, bool) override {}
    void invalidate(Addr) override {}
    void beginWrite(Addr) override {}
    void endWrite(Addr, u32) override {}
};

} // namespace rio::os

#endif // RIO_OS_CACHEGUARD_HH
