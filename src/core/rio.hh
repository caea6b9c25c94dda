/**
 * @file
 * RioSystem: the paper's primary contribution, as a layer the
 * simulated kernel plugs into.
 *
 * It implements os::CacheGuard — maintaining the registry entry for
 * every file-cache page, toggling page protection around legitimate
 * writes, keeping per-page checksums (the section 3.2 detection
 * apparatus), and shadowing critical metadata updates for atomicity —
 * and sim::ProtectionPolicy — the code-patching address check for
 * CPUs that cannot force KSEG through the TLB, plus the counter of
 * "saves" (stores that would have corrupted the file cache had
 * protection been off, section 3.3).
 *
 * Page checksums are lazy: endWrite stores the checksum field as
 * always but leaves the sum itself owed, and Rio computes it host-side
 * at the first moment it could be observed or its bytes could change
 * unrecorded (sim::AccessWatch). Every observer therefore sees the
 * memory image an eager sum would have left; DESIGN.md, "Page
 * checksums are lazy", lists the points.
 */

#ifndef RIO_CORE_RIO_HH
#define RIO_CORE_RIO_HH

#include <exception>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/registry.hh"
#include "os/cacheguard.hh"
#include "os/kconfig.hh"
#include "os/locks.hh"
#include "sim/machine.hh"

namespace rio::core
{

struct RioOptions
{
    os::ProtectionMode protection = os::ProtectionMode::VmTlb;

    /**
     * Maintain per-page checksums in the registry. This is the
     * crash-test detection apparatus; performance runs disable it,
     * exactly as the paper's Table 2 measurements do.
     */
    bool maintainChecksums = false;

    /** Shadow critical metadata updates (section 2.3 atomicity). */
    bool shadowMetadata = true;

    /**
     * rio-nv: mirror the registry — entries and shadow pages — into
     * the machine's NvRegion (battery-backed DRAM, paper section 7)
     * so the warm reboot has a copy that survives even when the
     * in-memory registry is smashed. Requires MachineConfig::nvBytes
     * large enough for the mirror (core/nvmirror.hh layout).
     */
    bool nvBacked = false;
};

struct RioStats
{
    u64 registryInstalls = 0;
    u64 registryUpdates = 0;
    u64 pageOpens = 0;
    u64 shadowCopies = 0;
    u64 protectionSaves = 0;
    u64 nvMirrorWrites = 0; ///< Mirror stores into the NV region.
    u64 pagesSummed = 0;    ///< Page checksums actually computed.
};

class RioSystem : public os::CacheGuard, public sim::ProtectionPolicy
{
  public:
    RioSystem(sim::Machine &machine, const RioOptions &options);
    ~RioSystem() override;

    /**
     * Activate on a freshly booting kernel: zero the registry,
     * configure the protection mechanism (ABOX mapKseg bit or code
     * patching), and write-protect the registry and both file-cache
     * pools. Call *after* any warm-reboot registry scan and *before*
     * Kernel::boot.
     */
    void activate();

    /**
     * Tear down protection (machine is crashing / being reused),
     * first computing every pending checksum into the image.
     */
    void deactivate();

    /** @{ os::CacheGuard. */
    void kernelBooting() override { activate(); }
    void install(Addr page, const os::CacheTag &tag) override;
    void setDirty(Addr page, bool dirty) override;
    void invalidate(Addr page) override;
    /** @} */

    /** @{ sim::ProtectionPolicy. */
    bool patchCheckBlocksStore(Addr pa) const override;
    void onProtectionStop(Addr pa) override;
    /** @} */

    const RioOptions &options() const { return options_; }
    const RioStats &stats() const { return stats_; }

    /**
     * rio-nv: register the NV mirror lock in the kernel lock table
     * so mirror writes serialize against "other threads" and the
     * lockdep/riolint rank machinery covers them. Optional — without
     * it the mirror is written unlocked (single-threaded tests). Call
     * after the kernel is constructed, before boot. No-op unless
     * options().nvBacked.
     */
    void bindNvLock(os::LockTable &locks);

    /** Decode the live registry entry for @p page (tests); computes
     *  its pending checksum first. */
    std::optional<RegistryEntry> entryFor(Addr page);

    /** Verify every active page against its checksum (detection),
     *  computing every pending checksum first. */
    struct ChecksumSweep
    {
        u64 checked = 0;
        u64 mismatches = 0;
        u64 changingSkipped = 0;
        std::vector<Addr> badPages;
    };
    ChecksumSweep verifyChecksums();

  private:
    /** Compile-fail fixtures (tests/typestate) reach the protocol's
     *  private steps through this; it has no definition in the tree. */
    friend struct ProtocolFixture;

    /**
     * A protection window on one page, open for the token's lifetime.
     * The destructor closes it, except while a crash unwinds through
     * it: the crashed kernel never closed the page either.
     */
    class PageWindow
    {
      public:
        PageWindow(RioSystem &rio, Addr page) : rio_(rio), page_(page)
        {
            rio_.openPage(page_);
        }
        /** noexcept(false): the close emits an event a crash can land
         *  on; see BufferCache::WriteWindow. */
        ~PageWindow() noexcept(false)
        {
            if (open_ && std::uncaught_exceptions() == 0)
                rio_.closePage(page_);
        }
        PageWindow(const PageWindow &) = delete;
        PageWindow &operator=(const PageWindow &) = delete;

      private:
        friend class RioSystem;
        RioSystem &rio_;
        Addr page_;
        bool open_ = true;
    };

    /** The window on entry @p index's registry page: the only way to
     *  write the entry's fields. */
    struct EntryWindow : PageWindow
    {
        EntryWindow(RioSystem &rio, u64 index)
            : PageWindow(rio, rio.registryPageOf(index)), index(index)
        {
        }
        const u64 index;
    };

    /** Proof that a data page's window has closed. Only closePage
     *  makes one and the commit flip takes one, so the flip cannot be
     *  spelled while the data page is still open. */
    class ClosedPage
    {
        friend class RioSystem;
        explicit ClosedPage(Addr page) : page_(page) {}
        Addr page_;
    };

    /** os::CacheGuard's window halves. */
    void openWrite(Addr page) override;
    void endWrite(Addr page, u32 validBytes) override;

    u64 entryIndexFor(Addr page) const;
    Addr entryAddr(u64 index) const;
    void openPage(Addr page);
    ClosedPage closePage(Addr page);
    void writeEntryField32(const EntryWindow &window, u64 off, u32 value);
    void writeEntryField64(const EntryWindow &window, u64 off, u64 value);
    /** The atomic commit: flip the entry back to Active as the last
     *  store of @p window, then close it. @p data is the entry's page. */
    void commitEntry(EntryWindow &&window, ClosedPage data);
    u32 readEntryField32(u64 index, u64 off) const;
    u64 readEntryField64(u64 index, u64 off) const;
    Addr registryPageOf(u64 index) const;
    bool isFileCachePage(Addr pa) const;
    Addr allocShadow();
    void freeShadow(Addr shadow);
    void nvInitMirror(const sim::Region &reg);
    void nvMirror(Addr pa, u64 len);

    /** The page checksum endWrite stores, bound to @p block. */
    u32 sumPage(Addr source, u32 validBytes, BlockNo block);
    u32 sumBytes(std::span<const u8> bytes, BlockNo block);
    bool mapsToItself(Addr page) const;

    /** Run @p fn under the NV mirror lock when one is bound. */
    template <typename Fn>
    void
    withNvLock(Fn &&fn)
    {
        if (nvLocks_) {
            os::LockTable::Guard guard(*nvLocks_, nvLock_);
            fn();
            return;
        }
        fn();
    }

    sim::Machine &machine_;
    RioOptions options_;
    RioStats stats_;

    Addr regBase_ = 0;
    u64 regPages_ = 0;
    Addr bufBase_ = 0;
    u64 bufPages_ = 0;
    Addr ubcBase_ = 0;
    u64 ubcPages_ = 0;
    Addr shadowBase_ = 0;
    std::vector<bool> shadowInUse_;
    /** rio-nv mirror target; null unless options_.nvBacked. */
    sim::NvRegion *nv_ = nullptr;
    os::LockTable *nvLocks_ = nullptr;
    os::LockId nvLock_ = 0;
    bool active_ = false;

    /** Pages currently opened for a legitimate write. Only code
     * patching tracks them (its store check consults the set). */
    std::unordered_set<Addr> openPages_;

    /** Checksums endWrite owes (rio.cc); null unless they are lazy:
     *  maintainChecksums without rio-nv. */
    class LazySums;
    std::unique_ptr<LazySums> lazy_;
};

} // namespace rio::core

#endif // RIO_CORE_RIO_HH
