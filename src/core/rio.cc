#include "core/rio.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/nvmirror.hh"
#include "sim/audit.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"

namespace rio::core
{

using L = RegistryLayout;

/**
 * The checksums endWrite owes. endWrite stores a placeholder into the
 * checksum field and records here what the sum would have covered;
 * the sum is computed into the field host-side at the first moment
 * the machine could observe the field, or change the summed bytes
 * without a write window journaling the change. The MemBus watch
 * reports bus accesses and DMA; Rio's own steps (beginWrite, install,
 * verifyChecksums, entryFor, deactivate) call in directly.
 */
class RioSystem::LazySums : public sim::AccessWatch
{
  public:
    explicit LazySums(RioSystem &rio);
    ~LazySums() override;

    /**
     * Entry @p index owes the sum over the first @p validBytes of
     * @p source, bound to @p block — replacing whatever sum it owed,
     * since the caller is about to store the field.
     */
    void setPending(u64 index, Addr source, u32 validBytes,
                    BlockNo block);

    /** Does @p index owe a sum that reads page @p page? */
    bool
    reads(u64 index, Addr page) const
    {
        return pending_[index].sourcePage == page >> sim::kPageShift;
    }

    /** Read @p index's owed sum from @p source instead (a copy). */
    void setSource(u64 index, Addr source);

    /**
     * A window opens on the page @p index's owed sum reads: from now
     * on, log the bytes each change to the page overwrites instead of
     * summing first. One window journals at a time.
     */
    void journal(u64 index);
    bool journaled(u64 index) const { return journaled_ == index + 1; }

    /** Forget @p index's owed sum: the field is overwritten whole. */
    void dropPending(u64 index);

    /** Compute @p index's owed sum, if any, into its field. */
    void sumPending(u64 index);
    void sumAll();

    /** endWrite's placeholder store to @p field, let by once. */
    void expectOwnStore(Addr field) { ownStore_ = field; }

    void onWatchedAccess(Addr pa, u64 len, bool write) override;

  private:
    /** 12 bytes per cache page. */
    struct PendingSum
    {
        u32 sourcePage = 0; ///< Frame number; 0 (reserved): none.
        u32 validBytes = 0;
        BlockNo diskBlock = 0;
    };

    void markStores(Addr page, bool watched);
    void logUndo(u64 index, Addr pa, u64 len);
    void endJournal();

    RioSystem &rio_;
    std::vector<PendingSum> pending_; ///< By entry index.
    u64 pendingCount_ = 0;
    /** Store marks, one per page from the first pool or registry
     *  page to the last: a sum's source page, and a registry page
     *  while it holds an owed field. */
    Addr watchBase_ = 0;
    std::vector<u8> storeMarks_;
    /** Owed fields per registry page: the load marks. */
    std::vector<u8> regPending_;
    Addr ownStore_ = 0;
    /** The journaling entry, plus 1 (0: none); the (offset, length)
     *  of each change, oldest first, and the bytes it overwrote. */
    u64 journaled_ = 0;
    std::vector<std::pair<u32, u32>> undo_;
    std::vector<u8> undoBytes_;
    /** The summed bytes as the journaled window found them. */
    std::vector<u8> original_;
};

RioSystem::RioSystem(sim::Machine &machine, const RioOptions &options)
    : machine_(machine), options_(options)
{
    const auto &mem = machine_.mem();
    const auto &reg = mem.region(sim::RegionKind::Registry);
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    regBase_ = reg.base;
    regPages_ = reg.pages();
    bufBase_ = buf.base;
    bufPages_ = buf.pages();
    ubcBase_ = ubc.base;
    ubcPages_ = ubc.pages();
    shadowBase_ = reg.end() - L::kShadowPages * sim::kPageSize;
    shadowInUse_.assign(L::kShadowPages, false);
    assert((bufPages_ + ubcPages_) * L::kEntrySize <=
           reg.size - L::kShadowPages * sim::kPageSize);
    if (options_.nvBacked) {
        nv_ = machine_.nv();
        if (!nv_)
            throw std::runtime_error(
                "rio: nvBacked needs a machine with an NV region "
                "(MachineConfig::nvBytes)");
        if (NvMirrorLayout::kHeaderBytes + reg.size > nv_->size())
            throw std::runtime_error(
                "rio: NV region too small for the registry mirror");
    }
    // rio-nv sums inside endWrite: its mirror copies the field with
    // the store, and the NV fault model tears bytes in flight.
    if (options_.maintainChecksums && !nv_)
        lazy_ = std::make_unique<LazySums>(*this);
}

RioSystem::~RioSystem()
{
    deactivate();
}

bool
RioSystem::isFileCachePage(Addr pa) const
{
    return (pa >= bufBase_ && pa < bufBase_ + bufPages_ * sim::kPageSize) ||
           (pa >= ubcBase_ && pa < ubcBase_ + ubcPages_ * sim::kPageSize);
}

u64
RioSystem::entryIndexFor(Addr page) const
{
    if (page >= bufBase_ &&
        page < bufBase_ + bufPages_ * sim::kPageSize) {
        return (page - bufBase_) >> sim::kPageShift;
    }
    if (page >= ubcBase_ &&
        page < ubcBase_ + ubcPages_ * sim::kPageSize) {
        return bufPages_ + ((page - ubcBase_) >> sim::kPageShift);
    }
    machine_.crash(sim::CrashCause::ConsistencyCheck,
                   "rio: registry lookup for non-file-cache address");
}

Addr
RioSystem::entryAddr(u64 index) const
{
    return regBase_ + index * L::kEntrySize;
}

Addr
RioSystem::registryPageOf(u64 index) const
{
    return entryAddr(index) & ~(sim::kPageSize - 1);
}

void
RioSystem::openPage(Addr page)
{
    ++stats_.pageOpens;
    if (auto *audit = machine_.audit())
        audit->openWindow(page);
    machine_.events().emit(sim::EventKind::RioOpenPage, page);
    switch (options_.protection) {
      case os::ProtectionMode::Off:
        return; // No mechanism, no cost.
      case os::ProtectionMode::VmTlb: {
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 2);
        const u64 vpn = page >> sim::kPageShift;
        machine_.pageTable().setWritable(vpn, true);
        machine_.tlb().invalidatePage(vpn);
        return;
      }
      case os::ProtectionMode::CodePatch:
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 4);
        openPages_.insert(page);
        return;
    }
}

RioSystem::ClosedPage
RioSystem::closePage(Addr page)
{
    if (auto *audit = machine_.audit())
        audit->closeWindow(page);
    machine_.events().emit(sim::EventKind::RioClosePage, page);
    switch (options_.protection) {
      case os::ProtectionMode::Off:
        break;
      case os::ProtectionMode::VmTlb: {
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 2);
        const u64 vpn = page >> sim::kPageShift;
        machine_.pageTable().setWritable(vpn, false);
        machine_.tlb().invalidatePage(vpn);
        break;
      }
      case os::ProtectionMode::CodePatch:
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 4);
        openPages_.erase(page);
        break;
    }
    return ClosedPage(page);
}

u32
RioSystem::readEntryField32(u64 index, u64 off) const
{
    return support::loadLE<u32>(machine_.mem().image(),
                                entryAddr(index) + off);
}

u64
RioSystem::readEntryField64(u64 index, u64 off) const
{
    return support::loadLE<u64>(machine_.mem().image(),
                                entryAddr(index) + off);
}

void
RioSystem::writeEntryField32(const EntryWindow &window, u64 off,
                             u32 value)
{
    assert(window.open_ && "entry write after its window committed");
    const Addr field = entryAddr(window.index) + off;
    machine_.bus().store32(field, value);
    machine_.events().emit(sim::EventKind::RioFieldWrite, field);
    if (nv_)
        nvMirror(field, 4);
}

void
RioSystem::writeEntryField64(const EntryWindow &window, u64 off,
                             u64 value)
{
    assert(window.open_ && "entry write after its window committed");
    const Addr field = entryAddr(window.index) + off;
    machine_.bus().store64(field, value);
    machine_.events().emit(sim::EventKind::RioFieldWrite, field);
    if (nv_)
        nvMirror(field, 8);
}

void
RioSystem::commitEntry(EntryWindow &&window, ClosedPage data)
{
    assert(isFileCachePage(data.page_) &&
           entryIndexFor(data.page_) == window.index &&
           "commit flip without closing the entry's own page");
    // The event fires *before* the flip so a modeled crash here lands
    // in the pre-commit window (Changing entry, shadow already
    // cleared) — the warm reboot must cope with exactly this state.
    machine_.events().emit(sim::EventKind::RioCommit, data.page_);
    writeEntryField32(window, L::kOffState, L::kStateActive);
    window.open_ = false;
    closePage(window.page_);
}

void
RioSystem::bindNvLock(os::LockTable &locks)
{
    if (!nv_)
        return;
    // riolint:rank(nvLock_, 40) innermost: mirror stores fire from
    // protocol steps already inside the bufcache lock (rank 30).
    nvLock_ = locks.add("nvmirror", os::LockRank{40});
    nvLocks_ = &locks;
}

/**
 * Mirror the just-stored registry bytes at @p pa into the NV region.
 * Fires *after* the DRAM store (and its FieldWrite observation), so a
 * modeled crash between the two leaves the mirror one step stale —
 * exactly the divergence the warm-reboot graft must tolerate.
 */
void
RioSystem::nvMirror(Addr pa, u64 len)
{
    if (!nv_)
        return;
    withNvLock([&] {
        ++stats_.nvMirrorWrites;
        nv_->write(NvMirrorLayout::kHeaderBytes + (pa - regBase_),
                   machine_.mem().image().subspan(pa, len),
                   machine_.clock());
    });
}

/**
 * (Re)initialise the NV mirror for a fresh registry: invalidate the
 * header, zero the body, then commit the header — a crash anywhere
 * inside leaves a mirror that fails header validation rather than a
 * half-initialised one the graft might trust.
 */
void
RioSystem::nvInitMirror(const sim::Region &reg)
{
    using NvL = NvMirrorLayout;
    std::vector<u8> header(NvL::kHeaderBytes, 0);
    std::span<u8> h(header);
    support::storeLE<u32>(h, NvL::kOffMagic, NvL::kMagic);
    support::storeLE<u32>(h, NvL::kOffVersion, NvL::kVersion);
    support::storeLE<u64>(h, NvL::kOffRegBase, reg.base);
    support::storeLE<u64>(h, NvL::kOffRegSize, reg.size);
    support::storeLE<u32>(
        h, NvL::kOffChecksum,
        support::checksum32(std::span<const u8>(
            header.data(), NvL::kOffChecksum)));
    const std::vector<u8> blank(NvL::kHeaderBytes, 0);
    const std::vector<u8> zeros(reg.size, 0);
    withNvLock([&] {
        auto &clock = machine_.clock();
        nv_->write(0, blank, clock);
        nv_->write(NvL::kHeaderBytes, zeros, clock);
        nv_->write(0, header, clock);
    });
}

void
RioSystem::activate()
{
    auto &bus = machine_.bus();
    auto &pt = machine_.pageTable();

    // Fresh registry. (A warm reboot scans the old registry out of
    // the memory dump before this runs.)
    const auto &reg = machine_.mem().region(sim::RegionKind::Registry);
    {
        // Wholesale registry initialisation is a sanctioned write.
        sim::StoreAudit::Scope scope(machine_.audit(),
                                     sim::RegionKind::Registry);
        bus.set(reg.base, 0, reg.size);
    }
    if (nv_)
        nvInitMirror(reg);

    switch (options_.protection) {
      case os::ProtectionMode::Off:
        break;
      case os::ProtectionMode::VmTlb: {
        // Force every address — including KSEG physical addresses,
        // which the UBC is accessed through — to translate via the
        // TLB (the ABOX control-register bit, section 2.1), then
        // write-protect the registry and both file-cache pools.
        machine_.cpu().setMapKsegThroughTlb(true);
        auto protect = [&](Addr base, u64 pages) {
            for (u64 i = 0; i < pages; ++i) {
                const u64 vpn = (base >> sim::kPageShift) + i;
                pt.setWritable(vpn, false);
                machine_.tlb().invalidatePage(vpn);
            }
        };
        protect(regBase_, regPages_);
        protect(bufBase_, bufPages_);
        protect(ubcBase_, ubcPages_);
        break;
      }
      case os::ProtectionMode::CodePatch:
        bus.setCodePatching(true);
        break;
    }
    bus.setPolicy(this);
    openPages_.clear();
    shadowInUse_.assign(L::kShadowPages, false);
    active_ = true;
}

void
RioSystem::deactivate()
{
    if (!active_)
        return;
    // The warm reboot, the oracle and every other reader of the image
    // after this point see the sums an eager endWrite would have left.
    if (lazy_)
        lazy_->sumAll();
    auto &bus = machine_.bus();
    bus.setPolicy(nullptr);
    bus.setCodePatching(false);
    machine_.cpu().setMapKsegThroughTlb(false);
    if (options_.protection == os::ProtectionMode::VmTlb) {
        auto unprotect = [&](Addr base, u64 pages) {
            for (u64 i = 0; i < pages; ++i) {
                const u64 vpn = (base >> sim::kPageShift) + i;
                machine_.pageTable().setWritable(vpn, true);
                machine_.tlb().invalidatePage(vpn);
            }
        };
        unprotect(regBase_, regPages_);
        unprotect(bufBase_, bufPages_);
        unprotect(ubcBase_, ubcPages_);
    }
    active_ = false;
}

Addr
RioSystem::allocShadow()
{
    for (u64 i = 0; i < shadowInUse_.size(); ++i) {
        if (!shadowInUse_[i]) {
            shadowInUse_[i] = true;
            return shadowBase_ + i * sim::kPageSize;
        }
    }
    machine_.crash(sim::CrashCause::KernelPanic,
                   "panic: rio: out of shadow pages");
}

void
RioSystem::freeShadow(Addr shadow)
{
    const u64 slot = (shadow - shadowBase_) >> sim::kPageShift;
    assert(slot < shadowInUse_.size());
    shadowInUse_[slot] = false;
}

void
RioSystem::install(Addr page, const os::CacheTag &tag)
{
    const u64 index = entryIndexFor(page);

    // Re-installing the same identity (e.g. a write window opening on
    // an already-registered buffer) must not reset the entry — the
    // dirty bit in particular is what the warm reboot keys off.
    const u32 wantKind = tag.kind == os::CacheKind::Metadata
                             ? L::kKindMetadata
                             : L::kKindData;
    if (readEntryField32(index, L::kOffMagic) == L::kMagic &&
        readEntryField64(index, L::kOffPhysAddr) == page &&
        readEntryField32(index, L::kOffKind) == wantKind &&
        readEntryField32(index, L::kOffDev) == tag.dev &&
        readEntryField32(index, L::kOffIno) == tag.ino &&
        readEntryField64(index, L::kOffOffset) == tag.offset &&
        readEntryField32(index, L::kOffDiskBlock) == tag.diskBlock) {
        return;
    }

    ++stats_.registryInstalls;
    EntryWindow entry(*this, index);
    writeEntryField32(entry, L::kOffMagic, L::kMagic);
    writeEntryField32(entry, L::kOffState, L::kStateActive);
    writeEntryField64(entry, L::kOffPhysAddr, page);
    writeEntryField32(entry, L::kOffKind, wantKind);
    writeEntryField32(entry, L::kOffDev, tag.dev);
    writeEntryField32(entry, L::kOffIno, tag.ino);
    writeEntryField64(entry, L::kOffOffset, tag.offset);
    writeEntryField32(entry, L::kOffDiskBlock, tag.diskBlock);
    writeEntryField32(entry, L::kOffSize, tag.size);
    writeEntryField32(entry, L::kOffDirty, 0);
    // This store lands (the stores above went through the same open
    // page) and overwrites the whole field: a sum still pending in it
    // can never be observed.
    if (lazy_)
        lazy_->dropPending(index);
    writeEntryField32(entry, L::kOffChecksum, 0);
    writeEntryField64(entry, L::kOffShadow, 0);
}

void
RioSystem::setDirty(Addr page, bool dirty)
{
    const u64 index = entryIndexFor(page);
    // Skip the protected write when the bit already has this value
    // (buffers are re-dirtied constantly).
    if ((readEntryField32(index, L::kOffDirty) != 0) == dirty)
        return;
    ++stats_.registryUpdates;
    EntryWindow entry(*this, index);
    writeEntryField32(entry, L::kOffDirty, dirty ? 1 : 0);
}

void
RioSystem::invalidate(Addr page)
{
    ++stats_.registryUpdates;
    EntryWindow entry(*this, entryIndexFor(page));
    writeEntryField32(entry, L::kOffMagic, 0);
    writeEntryField32(entry, L::kOffState, L::kStateFree);
}

void
RioSystem::openWrite(Addr page)
{
    ++stats_.registryUpdates;
    const u64 index = entryIndexFor(page);
    const u32 kind = readEntryField32(index, L::kOffKind);

    Addr shadow = 0;
    // Shadow only *dirty* metadata: for a clean buffer the disk
    // still holds a consistent copy, and the warm reboot only
    // restores dirty entries anyway — a torn clean buffer is simply
    // not restored, leaving the intact on-disk version.
    if (options_.shadowMetadata && kind == L::kKindMetadata &&
        readEntryField32(index, L::kOffMagic) == L::kMagic &&
        readEntryField32(index, L::kOffDirty) != 0) {
        // Copy the consistent contents aside and divert the registry
        // to the shadow before the original is modified.
        ++stats_.shadowCopies;
        shadow = allocShadow();
        {
            PageWindow copy(*this, shadow);
            machine_.bus().copy(shadow, page, sim::kPageSize);
        }
        // The NV copy of the shadow is the restore's last candidate
        // when both in-memory copies are gone (core/nvmirror.hh).
        nvMirror(shadow, sim::kPageSize);
        machine_.events().emit(sim::EventKind::RioShadowCopy, shadow);
    }

    {
        EntryWindow entry(*this, index);
        writeEntryField64(entry, L::kOffShadow, shadow);
        writeEntryField32(entry, L::kOffState, L::kStateChanging);
    }

    // The window may change the page, DMA included. A sum still
    // reading it reads the shadow instead when the shadow is a
    // byte-exact copy (no corrupted PTE sent the copy elsewhere, no
    // earlier unclosed window changed the page); otherwise the window
    // journals what it overwrites.
    if (lazy_ && lazy_->reads(index, page)) {
        if (shadow != 0 && !lazy_->journaled(index) &&
            mapsToItself(page) && mapsToItself(shadow))
            lazy_->setSource(index, shadow);
        else
            lazy_->journal(index);
    }
    openPage(page);
}

void
RioSystem::endWrite(Addr page, u32 validBytes)
{
    ++stats_.registryUpdates;
    const u64 index = entryIndexFor(page);

    const ClosedPage closed = closePage(page);

    // The sum covers the page as the window leaves it; a lazy one
    // stays owed, with a placeholder in the field, until it could be
    // observed.
    const BlockNo block = readEntryField32(index, L::kOffDiskBlock);
    u32 checksum = 0;
    if (options_.maintainChecksums && !lazy_)
        checksum = sumPage(page, validBytes, block);

    const Addr shadow = readEntryField64(index, L::kOffShadow);
    EntryWindow entry(*this, index);
    writeEntryField32(entry, L::kOffSize, validBytes);
    if (lazy_) {
        // Owed before the placeholder lands, so a crash at the store's
        // own event still finds it; the watch lets this one store by.
        // It lands: the size store just went through the same page.
        lazy_->setPending(index, page, validBytes, block);
        lazy_->expectOwnStore(entryAddr(index) + L::kOffChecksum);
    }
    writeEntryField32(entry, L::kOffChecksum, checksum);
    writeEntryField64(entry, L::kOffShadow, 0);
    // The atomic commit: the entry points back at the original.
    commitEntry(std::move(entry), closed);
    if (shadow != 0)
        freeShadow(shadow);
}

bool
RioSystem::patchCheckBlocksStore(Addr pa) const
{
    if (!active_)
        return false;
    const Addr page = pa & ~(sim::kPageSize - 1);
    const bool protectedRange =
        isFileCachePage(page) ||
        (page >= regBase_ &&
         page < regBase_ + regPages_ * sim::kPageSize);
    if (!protectedRange)
        return false;
    return openPages_.find(page) == openPages_.end();
}

void
RioSystem::onProtectionStop(Addr pa)
{
    (void)pa;
    ++stats_.protectionSaves;
}

std::optional<RegistryEntry>
RioSystem::entryFor(Addr page)
{
    const u64 index = entryIndexFor(page);
    if (lazy_)
        lazy_->sumPending(index);
    return decodeRegistryEntry(machine_.mem().image().subspan(
        entryAddr(index), L::kEntrySize));
}

RioSystem::ChecksumSweep
RioSystem::verifyChecksums()
{
    if (lazy_)
        lazy_->sumAll();
    ChecksumSweep sweep;
    const u64 entries = bufPages_ + ubcPages_;
    for (u64 index = 0; index < entries; ++index) {
        auto entry = decodeRegistryEntry(machine_.mem().image().subspan(
            entryAddr(index), L::kEntrySize));
        if (!entry || entry->checksum == 0)
            continue;
        if (entry->state == L::kStateChanging) {
            ++sweep.changingSkipped;
            continue;
        }
        ++sweep.checked;
        const u64 n = std::min<u64>(entry->size, sim::kPageSize);
        const u32 actual = bindChecksum(
            support::checksum32(
                machine_.mem().image().subspan(entry->physAddr, n)),
            entry->diskBlock);
        if (actual != entry->checksum) {
            ++sweep.mismatches;
            sweep.badPages.push_back(entry->physAddr);
        }
    }
    return sweep;
}

// --- Lazy checksums -------------------------------------------------

u32
RioSystem::sumPage(Addr source, u32 validBytes, BlockNo block)
{
    const u64 n = std::min<u64>(validBytes, sim::kPageSize);
    return sumBytes(machine_.mem().image().subspan(source, n), block);
}

u32
RioSystem::sumBytes(std::span<const u8> bytes, BlockNo block)
{
    ++stats_.pagesSummed;
    // Bind to the claimed location so a corrupted diskBlock field
    // fails verification like corrupted content (registry.hh).
    return bindChecksum(support::checksum32(bytes), block);
}

/**
 * Does a bus access to @p page (a physical address used as a virtual
 * one) reach that same frame? Only a corrupted PTE says no.
 */
bool
RioSystem::mapsToItself(Addr page) const
{
    const u64 vpn = page >> sim::kPageShift;
    const sim::Tlb &tlb = machine_.tlb();
    const sim::PageTable &pageTable = machine_.pageTable();
    const sim::Pte *cached = tlb.lookup(vpn);
    const sim::Pte pte = cached ? *cached : pageTable.read(vpn);
    return pte.pfn == vpn;
}

RioSystem::LazySums::LazySums(RioSystem &rio)
    : rio_(rio), pending_(rio.bufPages_ + rio.ubcPages_),
      regPending_(rio.regPages_)
{
    const auto &mem = rio.machine_.mem();
    const auto &reg = mem.region(sim::RegionKind::Registry);
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    watchBase_ = std::min({buf.base, reg.base, ubc.base});
    storeMarks_.assign((std::max({buf.end(), reg.end(), ubc.end()}) -
                        watchBase_) >>
                           sim::kPageShift,
                       0);
}

RioSystem::LazySums::~LazySums()
{
    if (pendingCount_ != 0)
        rio_.machine_.bus().disarmWatch();
}

void
RioSystem::LazySums::markStores(Addr page, bool watched)
{
    storeMarks_[(page - watchBase_) >> sim::kPageShift] = watched;
}

void
RioSystem::LazySums::setPending(u64 index, Addr source, u32 validBytes,
                                BlockNo block)
{
    if (journaled(index))
        endJournal(); // The sum it journaled for dies with the field.
    PendingSum &pending = pending_[index];
    if (pending.sourcePage == 0) {
        if (pendingCount_++ == 0) {
            rio_.machine_.bus().armWatch(
                *this, {rio_.regBase_ >> sim::kPageShift, regPending_},
                {watchBase_ >> sim::kPageShift, storeMarks_});
        }
        const Addr regPage = rio_.registryPageOf(index);
        if (regPending_[(regPage - rio_.regBase_) >> sim::kPageShift]++ ==
            0)
            markStores(regPage, true);
    }
    pending.validBytes = validBytes;
    pending.diskBlock = block;
    setSource(index, source);
}

void
RioSystem::LazySums::setSource(u64 index, Addr source)
{
    PendingSum &pending = pending_[index];
    if (pending.sourcePage != 0)
        markStores(Addr{pending.sourcePage} << sim::kPageShift, false);
    pending.sourcePage = static_cast<u32>(source >> sim::kPageShift);
    markStores(source, true);
}

void
RioSystem::LazySums::dropPending(u64 index)
{
    PendingSum &pending = pending_[index];
    if (pending.sourcePage == 0)
        return;
    markStores(Addr{pending.sourcePage} << sim::kPageShift, false);
    if (journaled(index))
        endJournal();
    pending = PendingSum{};
    const Addr regPage = rio_.registryPageOf(index);
    if (--regPending_[(regPage - rio_.regBase_) >> sim::kPageShift] == 0)
        markStores(regPage, false);
    if (--pendingCount_ == 0)
        rio_.machine_.bus().disarmWatch();
}

void
RioSystem::LazySums::sumPending(u64 index)
{
    const PendingSum pending = pending_[index];
    if (pending.sourcePage == 0)
        return;
    const Addr source = Addr{pending.sourcePage} << sim::kPageShift;
    u32 sum;
    if (journaled(index) && !undo_.empty()) {
        // Undo the window's changes, newest first, on a copy.
        const u64 n = std::min<u64>(pending.validBytes, sim::kPageSize);
        const auto image = rio_.machine_.mem().image();
        original_.assign(image.begin() + source,
                         image.begin() + source + n);
        u64 end = undoBytes_.size();
        for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
            end -= it->second;
            std::copy_n(undoBytes_.begin() + end, it->second,
                        original_.begin() + it->first);
        }
        sum = rio_.sumBytes(original_, pending.diskBlock);
    } else {
        sum = rio_.sumPage(source, pending.validBytes, pending.diskBlock);
    }
    dropPending(index);
    // riolint:allow(R1) the owed sum lands host-side: the bytes the
    // placeholder store would have written, where nothing has looked.
    std::memcpy(rio_.machine_.mem().raw() + rio_.entryAddr(index) +
                    L::kOffChecksum,
                &sum, sizeof(sum));
}

void
RioSystem::LazySums::journal(u64 index)
{
    if (journaled(index))
        return; // An unclosed window's journal goes on.
    if (journaled_ != 0)
        sumPending(journaled_ - 1);
    journaled_ = index + 1;
}

void
RioSystem::LazySums::endJournal()
{
    journaled_ = 0;
    undo_.clear();
    undoBytes_.clear();
}

/** Log the summed bytes a change to [pa, pa + len) overwrites. */
void
RioSystem::LazySums::logUndo(u64 index, Addr pa, u64 len)
{
    const u64 n = std::min<u64>(pending_[index].validBytes, sim::kPageSize);
    const u64 off = pa & (sim::kPageSize - 1);
    if (off >= n)
        return; // Past the bytes the sum covers.
    const u64 take = std::min(len, n - off);
    if (undoBytes_.size() + take > n) {
        sumPending(index); // Rewritten wholesale: sum once, stop.
        return;
    }
    const auto image = rio_.machine_.mem().image();
    undo_.emplace_back(static_cast<u32>(off), static_cast<u32>(take));
    undoBytes_.insert(undoBytes_.end(), image.begin() + pa,
                      image.begin() + pa + take);
}

void
RioSystem::LazySums::sumAll()
{
    for (u64 index = 0; pendingCount_ != 0 && index < pending_.size();
         ++index) {
        sumPending(index);
    }
}

void
RioSystem::LazySums::onWatchedAccess(Addr pa, u64 len, bool write)
{
    if (write && pa == ownStore_) {
        ownStore_ = 0; // endWrite's placeholder: the sum stays owed.
        return;
    }
    const Addr page = pa & ~(sim::kPageSize - 1);
    if (page >= rio_.regBase_ && page < rio_.shadowBase_) {
        // Registry entries: every owed field the access overlaps is
        // read or overwritten now.
        const Addr base = rio_.regBase_;
        const u64 last = std::min<u64>((pa + len - 1 - base) /
                                           L::kEntrySize,
                                       pending_.size() - 1);
        for (u64 index = (pa - base) / L::kEntrySize; index <= last;
             ++index) {
            const Addr field = rio_.entryAddr(index) + L::kOffChecksum;
            if (pa < field + 4 && field < pa + len)
                sumPending(index);
        }
        return;
    }
    // A store is about to change a source page: the sum that reads
    // it is due first, unless the page's window journals the change.
    if (!rio_.isFileCachePage(page)) {
        // A shadow copy (rare: a wild store, or a shadow slot reused
        // while a stale entry still names it).
        for (u64 index = 0; index < pending_.size(); ++index) {
            if (reads(index, page))
                sumPending(index);
        }
        return;
    }
    const u64 index = rio_.entryIndexFor(page);
    if (journaled(index))
        logUndo(index, pa, len);
    else
        sumPending(index);
}

} // namespace rio::core
