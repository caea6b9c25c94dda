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
 * caching new content, makes *every* legitimate content change inside
 * a WriteWindow (beginWrite() ... commit()), reports dirty-state
 * transitions, and calls invalidate() when the page stops caching
 * anything. A page's content changes only by bus store or by DMA
 * through os::dmaWrite: Rio may owe a page's checksum past the commit
 * (core/rio.hh) and must see, through the bus's watch, every change
 * to the bytes it covers.
 */

#ifndef RIO_OS_CACHEGUARD_HH
#define RIO_OS_CACHEGUARD_HH

#include <cassert>
#include <exception>
#include <utility>

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

class CacheGuard;

/**
 * An open write window on one file-cache page (CacheGuard::beginWrite).
 * Move-only; `std::move(window).commit(validBytes)` is the only way to
 * close it. A crash that unwinds through an open window leaves it
 * open, as the crashed kernel would: the page stays writable and its
 * entry Changing. Dropping a window uncommitted any other way is a
 * bug, and Debug builds abort on it.
 */
class WriteWindow
{
  public:
    WriteWindow(WriteWindow &&other) noexcept
        : guard_(std::exchange(other.guard_, nullptr)), page_(other.page_)
    {
    }
    WriteWindow(const WriteWindow &) = delete;
    WriteWindow &operator=(const WriteWindow &) = delete;
    ~WriteWindow()
    {
        assert((guard_ == nullptr || std::uncaught_exceptions() > 0) &&
               "write window dropped without commit");
    }

    Addr page() const { return page_; }

    /** Close the window: @p validBytes of the page are meaningful. The
     *  window counts as closed even when the close crashes. */
    void commit(u32 validBytes) &&;

  private:
    friend class CacheGuard;
    WriteWindow(CacheGuard &guard, Addr page) : guard_(&guard), page_(page)
    {
    }

    CacheGuard *guard_;
    Addr page_;
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
    [[nodiscard]] WriteWindow
    beginWrite(Addr page)
    {
        openWrite(page);
        return WriteWindow(*this, page);
    }

  private:
    friend class WriteWindow;

    /** The window's two halves, reached only through beginWrite and
     *  WriteWindow::commit. */
    virtual void openWrite(Addr page) = 0;
    virtual void endWrite(Addr page, u32 validBytes) = 0;
};

inline void
WriteWindow::commit(u32 validBytes) &&
{
    assert(guard_ != nullptr && "write window committed twice");
    std::exchange(guard_, nullptr)->endWrite(page_, validBytes);
}

/** No-op guard for the non-Rio configurations. */
class NullCacheGuard : public CacheGuard
{
  public:
    void install(Addr, const CacheTag &) override {}
    void setDirty(Addr, bool) override {}
    void invalidate(Addr) override {}

  private:
    void openWrite(Addr) override {}
    void endWrite(Addr, u32) override {}
};

} // namespace rio::os

#endif // RIO_OS_CACHEGUARD_HH
