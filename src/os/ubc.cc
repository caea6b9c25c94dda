#include "os/ubc.hh"

#include <algorithm>
#include <cassert>

namespace rio::os
{

Ubc::Ubc(sim::Machine &machine, KProcTable &procs, KernelHeap &heap,
         KCopy &kcopy, LockTable &locks, const KernelConfig &config)
    : machine_(machine), procs_(procs), heap_(heap), kcopy_(kcopy),
      locks_(locks), config_(config)
{}

void
Ubc::init(CacheGuard &guard, BackingStore &backing)
{
    guard_ = &guard;
    backing_ = &backing;
    const auto &pool = machine_.mem().region(sim::RegionKind::UbcPool);
    poolBase_ = pool.base;
    numPages_ = pool.pages();
    arena_ = heap_.alloc(numPages_ * kHeaderSize);
    // riolint:rank(ubcLock_, 20) middle: getPage's fill/spill path
    // reaches the buffer cache (rank 30) through Ufs::fillPage.
    ubcLock_ = locks_.add("ubc", LockRank{20}, arena_,
                          numPages_ * kHeaderSize);

    auto &bus = machine_.bus();
    index_.clear();
    byFile_.clear();
    dirty_.clear();
    freeList_.clear();
    for (u64 i = 0; i < numPages_; ++i) {
        const Addr h = headerAddr(static_cast<Ref>(i));
        bus.store32(h + kOffMagic, kMagic);
        bus.store32(h + kOffDev, 0);
        bus.store32(h + kOffIno, 0);
        bus.store32(h + kOffPageIdx, 0);
        bus.store32(h + kOffFlags, 0);
        bus.store32(h + kOffSize, 0);
        bus.store64(h + kOffData, poolBase_ + i * sim::kPageSize);
        bus.store64(h + kOffLastUse, 0);
        bus.store64(h + kOffDirtied, 0);
        freeList_.push_back(static_cast<Ref>(numPages_ - 1 - i));
    }
}

u32
Ubc::flags(Ref ref)
{
    return machine_.bus().load32(headerAddr(ref) + kOffFlags);
}

void
Ubc::setFlags(Ref ref, u32 value)
{
    machine_.bus().store32(headerAddr(ref) + kOffFlags, value);
}

Addr
Ubc::pagePhys(Ref ref)
{
    const Addr pa = machine_.bus().load64(headerAddr(ref) + kOffData);
    if (pa < poolBase_ || pa >= poolBase_ + numPages_ * sim::kPageSize ||
        (pa & (sim::kPageSize - 1)) != 0) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc: page pointer insane");
    }
    return pa;
}

u32
Ubc::validBytes(Ref ref)
{
    const u32 size = machine_.bus().load32(headerAddr(ref) + kOffSize);
    if (size > sim::kPageSize) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc: page valid-byte count insane");
    }
    return size;
}

void
Ubc::checkHeader(Ref ref, DevNo dev, InodeNo ino, u64 pageIdx)
{
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    if (bus.load32(h + kOffMagic) != kMagic) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc: bad page header magic");
    }
    if (bus.load32(h + kOffDev) != dev || bus.load32(h + kOffIno) != ino ||
        bus.load32(h + kOffPageIdx) != pageIdx) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc: object/page hash inconsistent");
    }
}

void
Ubc::evictOne()
{
    auto &bus = machine_.bus();
    Ref victim = kInvalidRef;
    u64 best = ~0ull;
    for (auto &[k, ref] : index_) {
        const u64 used = bus.load64(headerAddr(ref) + kOffLastUse);
        if (used < best) {
            best = used;
            victim = ref;
        }
    }
    if (victim == kInvalidRef) {
        machine_.crash(sim::CrashCause::KernelPanic,
                       "panic: ubc: no evictable pages");
    }
    ++stats_.evictions;
    if (flags(victim) & kDirty) {
        // The only reliability-independent write-back path: the cache
        // overflowed (paper section 2.3).
        spill(victim, false);
    }
    dropPage(victim);
}

void
Ubc::dropPage(Ref ref)
{
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    const DevNo dev = bus.load32(h + kOffDev);
    const InodeNo ino = bus.load32(h + kOffIno);
    const u32 pageIdx = bus.load32(h + kOffPageIdx);
    guard_->invalidate(pagePhys(ref));
    index_.erase(pageKey(dev, ino, pageIdx));
    dirty_.erase(ref);
    auto it = byFile_.find(fileKey(dev, ino));
    if (it != byFile_.end()) {
        it->second.erase(ref);
        if (it->second.empty())
            byFile_.erase(it);
    }
    setFlags(ref, 0);
    bus.store32(h + kOffSize, 0);
    freeList_.push_back(ref);
}

Ubc::Ref
Ubc::getPage(DevNo dev, InodeNo ino, u64 pageIdx, bool fill)
{
    procs_.enter(ProcId::UbcLookup);
    LockTable::Guard lockGuard(locks_, ubcLock_);
    auto &bus = machine_.bus();

    auto it = index_.find(pageKey(dev, ino, pageIdx));
    if (it != index_.end()) {
        ++stats_.hits;
        const Ref ref = it->second;
        checkHeader(ref, dev, ino, pageIdx);
        bus.store64(headerAddr(ref) + kOffLastUse,
                    machine_.clock().now());
        return ref;
    }

    ++stats_.misses;
    if (freeList_.empty())
        evictOne(); // Puts the victim on the free list.
    const Ref ref = freeList_.back();
    freeList_.pop_back();

    const Addr h = headerAddr(ref);
    bus.store32(h + kOffDev, dev);
    bus.store32(h + kOffIno, ino);
    bus.store32(h + kOffPageIdx, static_cast<u32>(pageIdx));
    bus.store32(h + kOffFlags, kValid);
    bus.store32(h + kOffSize, 0);
    bus.store64(h + kOffLastUse, machine_.clock().now());
    index_[pageKey(dev, ino, pageIdx)] = ref;
    byFile_[fileKey(dev, ino)].insert(ref);

    const Addr page = pagePhys(ref);
    CacheTag tag;
    tag.kind = CacheKind::Data;
    tag.dev = dev;
    tag.ino = ino;
    tag.offset = pageIdx * sim::kPageSize;
    tag.size = 0;
    guard_->install(page, tag);

    if (fill) {
        ++stats_.fills;
        procs_.enter(ProcId::UbcFill);
        WriteWindow window = guard_->beginWrite(page);
        const u32 valid = backing_->fillPage(dev, ino, pageIdx, page);
        std::move(window).commit(valid);
        bus.store32(h + kOffSize, valid);
    } else {
        WriteWindow window = guard_->beginWrite(page);
        kcopy_.zero(sim::physToKseg(page), sim::kPageSize);
        std::move(window).commit(0);
    }
    return ref;
}

void
Ubc::write(Ref ref, u64 off, std::span<const u8> data, u32 newValidBytes)
{
    assert(off + data.size() <= sim::kPageSize);
    assert(newValidBytes <= sim::kPageSize);
    procs_.enter(ProcId::UfsWriteFile);
    auto &bus = machine_.bus();
    const Addr page = pagePhys(ref);
    WriteWindow window = guard_->beginWrite(page);
    // The UBC is physically addressed: use the KSEG alias.
    kcopy_.copyIn(sim::physToKseg(page) + off, data);
    std::move(window).commit(newValidBytes);
    const Addr h = headerAddr(ref);
    bus.store32(h + kOffSize, newValidBytes);
    // Insert unconditionally, so the index covers a page whose kDirty
    // bit was set behind the UBC's back before this write.
    dirty_.insert(ref);
    const u32 f = flags(ref);
    if (!(f & kDirty)) {
        bus.store64(h + kOffDirtied, machine_.clock().now());
        setFlags(ref, f | kDirty);
        guard_->setDirty(page, true);
    }
}

void
Ubc::read(Ref ref, u64 off, std::span<u8> out)
{
    assert(off + out.size() <= sim::kPageSize);
    kcopy_.copyOut(out, sim::physToKseg(pagePhys(ref)) + off);
}

void
Ubc::spill(Ref ref, bool sync)
{
    ++stats_.spills;
    procs_.enter(ProcId::UbcSpill);
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    backing_->spillPage(bus.load32(h + kOffDev), bus.load32(h + kOffIno),
                        bus.load32(h + kOffPageIdx), pagePhys(ref),
                        validBytes(ref), sync);
    setFlags(ref, flags(ref) & ~kDirty);
    guard_->setDirty(pagePhys(ref), false);
    dirty_.erase(ref);
}

void
Ubc::flushFile(DevNo dev, InodeNo ino, bool sync)
{
    auto it = byFile_.find(fileKey(dev, ino));
    if (it == byFile_.end())
        return;
    std::vector<Ref> dirty;
    for (const Ref ref : it->second) {
        if (flags(ref) & kDirty)
            dirty.push_back(ref);
    }
    std::sort(dirty.begin(), dirty.end(), [this](Ref a, Ref b) {
        auto &bus = machine_.bus();
        return bus.load32(headerAddr(a) + kOffPageIdx) <
               bus.load32(headerAddr(b) + kOffPageIdx);
    });
    for (const Ref ref : dirty)
        spill(ref, sync);
}

void
Ubc::flushAll(bool sync)
{
    // The index iterates in ascending ref order, the spill order. A
    // candidate whose header says clean leaves the index; spill()
    // removes the rest.
    std::vector<Ref> dirty;
    for (auto it = dirty_.begin(); it != dirty_.end();) {
        if (flags(*it) & kDirty) {
            dirty.push_back(*it);
            ++it;
        } else {
            it = dirty_.erase(it);
        }
    }
    for (const Ref ref : dirty)
        spill(ref, sync);
}

u64
Ubc::dirtyBytesOfFile(DevNo dev, InodeNo ino)
{
    auto it = byFile_.find(fileKey(dev, ino));
    if (it == byFile_.end())
        return 0;
    u64 bytes = 0;
    for (const Ref ref : it->second) {
        if (flags(ref) & kDirty)
            bytes += validBytes(ref);
    }
    return bytes;
}

void
Ubc::invalidateFile(DevNo dev, InodeNo ino)
{
    auto it = byFile_.find(fileKey(dev, ino));
    if (it == byFile_.end())
        return;
    const std::vector<Ref> refs(it->second.begin(), it->second.end());
    for (const Ref ref : refs)
        dropPage(ref);
}

void
Ubc::invalidateAll()
{
    std::vector<Ref> live;
    live.reserve(index_.size());
    for (auto &[k, ref] : index_)
        live.push_back(ref);
    for (const Ref ref : live)
        dropPage(ref);
}

void
Ubc::truncateFile(DevNo dev, InodeNo ino, u64 newSize)
{
    auto it = byFile_.find(fileKey(dev, ino));
    if (it == byFile_.end())
        return;
    auto &bus = machine_.bus();
    const u64 keepPages = (newSize + sim::kPageSize - 1) / sim::kPageSize;
    std::vector<Ref> drop;
    Ref boundary = kInvalidRef;
    for (const Ref ref : it->second) {
        const u64 idx = bus.load32(headerAddr(ref) + kOffPageIdx);
        if (idx >= keepPages)
            drop.push_back(ref);
        else if (idx == keepPages - 1 && newSize % sim::kPageSize != 0)
            boundary = ref;
    }
    for (const Ref ref : drop)
        dropPage(ref);
    if (boundary != kInvalidRef) {
        const u32 keep = static_cast<u32>(newSize % sim::kPageSize);
        const Addr page = pagePhys(boundary);
        WriteWindow window = guard_->beginWrite(page);
        kcopy_.zero(sim::physToKseg(page) + keep, sim::kPageSize - keep);
        std::move(window).commit(keep);
        bus.store32(headerAddr(boundary) + kOffSize, keep);
    }
}

u64
Ubc::dirtyPages()
{
    u64 count = 0;
    for (const Ref ref : dirty_) {
        if (flags(ref) & kDirty)
            ++count;
    }
    return count;
}

Addr
Ubc::randomLiveHeaderAddr(support::Rng &rng) const
{
    if (index_.empty())
        return 0;
    const u64 skip = rng.below(index_.size());
    auto it = index_.begin();
    std::advance(it, skip);
    return headerAddr(it->second);
}

} // namespace rio::os
