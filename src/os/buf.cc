#include "os/buf.hh"

#include <algorithm>
#include <cassert>

#include "os/dma.hh"
#include "os/ioretry.hh"

namespace rio::os
{

BufferCache::BufferCache(sim::Machine &machine, KProcTable &procs,
                         KernelHeap &heap, KCopy &kcopy,
                         LockTable &locks, const KernelConfig &config)
    : machine_(machine), procs_(procs), heap_(heap), kcopy_(kcopy),
      locks_(locks), config_(config)
{}

void
BufferCache::init(CacheGuard &guard, sim::Disk &disk)
{
    guard_ = &guard;
    disk_ = &disk;
    const auto &pool = machine_.mem().region(sim::RegionKind::BufPool);
    poolBase_ = pool.base;
    numBufs_ = pool.pages();
    arena_ = heap_.alloc(numBufs_ * kHeaderSize);
    // riolint:rank(bufLock_, 30) innermost: getblk/bread nest inside
    // both the filesystem lock (ufs_dir) and the ubc lock (fill/spill).
    bufLock_ = locks_.add("bufcache", LockRank{30}, arena_,
                          numBufs_ * kHeaderSize);
    staging_.assign(sim::kPageSize, 0);

    auto &bus = machine_.bus();
    freeList_.clear();
    index_.clear();
    for (u64 i = 0; i < numBufs_; ++i) {
        const Addr h = headerAddr(static_cast<Ref>(i));
        bus.store32(h + kOffMagic, kMagic);
        bus.store32(h + kOffDev, 0);
        bus.store32(h + kOffBlkno, 0);
        bus.store32(h + kOffFlags, 0);
        bus.store64(h + kOffData, poolBase_ + i * sim::kPageSize);
        bus.store32(h + kOffSize, sim::kPageSize);
        bus.store32(h + kOffRef, 0);
        bus.store64(h + kOffLastUse, 0);
        bus.store64(h + kOffDirtied, 0);
        freeList_.push_back(static_cast<Ref>(numBufs_ - 1 - i));
    }
}

u32
BufferCache::flags(Ref ref)
{
    return machine_.bus().load32(headerAddr(ref) + kOffFlags);
}

void
BufferCache::setFlags(Ref ref, u32 value)
{
    machine_.bus().store32(headerAddr(ref) + kOffFlags, value);
}

Addr
BufferCache::pageAddr(Ref ref)
{
    return machine_.bus().load64(headerAddr(ref) + kOffData);
}

void
BufferCache::checkHeader(Ref ref, DevNo dev, BlockNo block)
{
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    if (bus.load32(h + kOffMagic) != kMagic) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "buffer cache: bad buffer header magic");
    }
    if (bus.load32(h + kOffDev) != dev ||
        bus.load32(h + kOffBlkno) != block) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "buffer cache: hash chain inconsistent");
    }
    const Addr page = bus.load64(h + kOffData);
    if (page < poolBase_ ||
        page >= poolBase_ + numBufs_ * sim::kPageSize ||
        (page & (sim::kPageSize - 1)) != 0) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "buffer cache: buffer data pointer insane");
    }
}

CacheTag
BufferCache::tagOf(Ref ref)
{
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    CacheTag tag;
    tag.kind = CacheKind::Metadata;
    tag.dev = bus.load32(h + kOffDev);
    tag.diskBlock = bus.load32(h + kOffBlkno);
    tag.size = sim::kPageSize;
    return tag;
}

BufferCache::Ref
BufferCache::evictOne()
{
    // LRU over non-busy buffers; the in-memory timestamps are
    // authoritative.
    auto &bus = machine_.bus();
    Ref victim = kInvalidRef;
    u64 best = ~0ull;
    for (auto &[k, ref] : index_) {
        const u32 f = flags(ref);
        if (f & kBusy)
            continue;
        const u64 used = bus.load64(headerAddr(ref) + kOffLastUse);
        if (used < best) {
            best = used;
            victim = ref;
        }
    }
    if (victim == kInvalidRef) {
        machine_.crash(sim::CrashCause::KernelPanic,
                       "panic: buffer cache exhausted (all busy)");
    }
    ++stats_.evictions;
    const u32 f = flags(victim);
    if (f & (kDirty | kDelwri))
        diskWrite(victim, true);
    guard_->invalidate(pageAddr(victim));
    const Addr h = headerAddr(victim);
    const u64 k = key(bus.load32(h + kOffDev), bus.load32(h + kOffBlkno));
    index_.erase(k);
    setFlags(victim, 0);
    return victim;
}

BufferCache::Ref
BufferCache::allocateBuf(DevNo dev, BlockNo block)
{
    Ref ref;
    if (!freeList_.empty()) {
        ref = freeList_.back();
        freeList_.pop_back();
    } else {
        ref = evictOne();
    }
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    bus.store32(h + kOffDev, dev);
    bus.store32(h + kOffBlkno, block);
    bus.store32(h + kOffFlags, kBusy);
    bus.store64(h + kOffLastUse, machine_.clock().now());
    index_[key(dev, block)] = ref;
    return ref;
}

BufferCache::Ref
BufferCache::getblk(DevNo dev, BlockNo block)
{
    procs_.enter(ProcId::BufGetblk);
    LockTable::Guard guard(locks_, bufLock_);
    auto it = index_.find(key(dev, block));
    if (it != index_.end()) {
        ++stats_.hits;
        const Ref ref = it->second;
        checkHeader(ref, dev, block);
        setFlags(ref, flags(ref) | kBusy);
        machine_.bus().store64(headerAddr(ref) + kOffLastUse,
                               machine_.clock().now());
        return ref;
    }
    ++stats_.misses;
    return allocateBuf(dev, block);
}

void
BufferCache::diskFill(Ref ref)
{
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    const u32 block = bus.load32(h + kOffBlkno);
    const u64 maxBlocks = disk_->numSectors() / sim::kSectorsPerBlock;
    if (block >= maxBlocks) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "bread: block number beyond device");
    }
    procs_.enter(ProcId::DiskStrategy);
    if (journal_ != nullptr &&
        journal_->fetchBlock(bus.load32(h + kOffDev), block,
                             staging_)) {
        // Committed-but-not-checkpointed (or in the open
        // transaction): the journal's image is newer than the home
        // copy, and costs no disk time to serve.
    } else {
        ++stats_.diskReads;
        const IoOutcome outcome = retryRead(
            *disk_,
            static_cast<SectorNo>(block) * sim::kSectorsPerBlock,
            sim::kSectorsPerBlock, staging_, machine_.clock(),
            config_.ioRetry);
        stats_.ioRetries += outcome.retries;
        stats_.ioRemaps += outcome.remaps;
        if (!outcome.ok() && config_.ioRetry.enabled) {
            ++stats_.ioAbandoned;
            machine_.crash(sim::CrashCause::KernelPanic,
                           "bread: unrecoverable disk read");
        }
        // With the retry discipline off, a failed read is silently
        // ignored and the stale staging bytes leak into the cache —
        // the legacy assume-success hole the ablation's baseline arm
        // keeps.
    }
    const Addr page = pageAddr(ref);
    guard_->install(page, tagOf(ref));
    os::WriteWindow window = guard_->beginWrite(page);
    dmaWrite(machine_.bus(), page, staging_);
    std::move(window).commit(sim::kPageSize);
    setFlags(ref, flags(ref) | kValid);
}

BufferCache::Ref
BufferCache::bread(DevNo dev, BlockNo block)
{
    procs_.enter(ProcId::BufBread);
    const Ref ref = getblk(dev, block);
    if (!(flags(ref) & kValid))
        diskFill(ref);
    return ref;
}

void
BufferCache::diskWrite(Ref ref, bool sync)
{
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    const u32 block = bus.load32(h + kOffBlkno);
    const u64 maxBlocks = disk_->numSectors() / sim::kSectorsPerBlock;
    if (block >= maxBlocks) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "bwrite: block number beyond device");
    }
    procs_.enter(ProcId::DiskStrategy);
    const Addr page = pageAddr(ref);
    dmaRead(machine_.mem(), page, staging_);
    const SectorNo sector =
        static_cast<SectorNo>(block) * sim::kSectorsPerBlock;
    if (sync)
        ++stats_.diskWritesSync;
    else
        ++stats_.diskWritesAsync;
    const IoOutcome outcome =
        retryWrite(*disk_, sector, sim::kSectorsPerBlock, staging_,
                   machine_.clock(), config_.ioRetry, /*queued=*/!sync);
    stats_.ioRetries += outcome.retries;
    stats_.ioRemaps += outcome.remaps;
    if (!outcome.ok() && config_.ioRetry.enabled) {
        ++stats_.ioAbandoned;
        // The block never reached the platter and never will: degrade
        // to a read-only remount instead of losing updates silently.
        if (!degraded_) {
            degraded_ = true;
            if (degrade_)
                degrade_();
        }
    }
    setFlags(ref, flags(ref) & ~(kDirty | kDelwri));
    guard_->setDirty(page, false);
}

void
BufferCache::brelse(Ref ref)
{
    procs_.enter(ProcId::BufRelease);
    setFlags(ref, flags(ref) & ~kBusy);
}

void
BufferCache::bwrite(Ref ref)
{
    diskWrite(ref, true);
    brelse(ref);
}

void
BufferCache::bawrite(Ref ref)
{
    diskWrite(ref, false);
    brelse(ref);
}

void
BufferCache::bdwrite(Ref ref)
{
    ++stats_.delayedWrites;
    auto &bus = machine_.bus();
    const Addr h = headerAddr(ref);
    const u32 f = flags(ref);
    if (!(f & kDelwri))
        bus.store64(h + kOffDirtied, machine_.clock().now());
    setFlags(ref, (f | kDirty | kDelwri) & ~kBusy);
    guard_->setDirty(pageAddr(ref), true);
}

void
BufferCache::releaseWrite(Ref ref)
{
    const MetadataPolicy policy =
        (config_.rio && config_.adminForceSync) ? MetadataPolicy::Sync
                                                : config_.metadata;
    switch (policy) {
      case MetadataPolicy::Sync:
        bwrite(ref);
        return;
      case MetadataPolicy::Delayed:
        bdwrite(ref);
        return;
      case MetadataPolicy::Logged:
        if (journal_ != nullptr) {
            auto &bus = machine_.bus();
            const Addr h = headerAddr(ref);
            journal_->appendMetadata(bus.load32(h + kOffDev),
                                     bus.load32(h + kOffBlkno),
                                     pageAddr(ref));
            // Write-ahead rule: the home copy is written only at
            // checkpoint, from the journal's committed image — never
            // from here. The buffer stays valid and clean.
            setFlags(ref, flags(ref) & ~(kDirty | kDelwri | kBusy));
            guard_->setDirty(pageAddr(ref), false);
            return;
        }
        bdwrite(ref);
        return;
      case MetadataPolicy::Never:
        bdwrite(ref);
        return;
    }
}

u8
BufferCache::read8(Ref ref, u64 off)
{
    return machine_.bus().load8(pageAddr(ref) + off);
}

u16
BufferCache::read16(Ref ref, u64 off)
{
    return machine_.bus().load16(pageAddr(ref) + off);
}

u32
BufferCache::read32(Ref ref, u64 off)
{
    return machine_.bus().load32(pageAddr(ref) + off);
}

u64
BufferCache::read64(Ref ref, u64 off)
{
    return machine_.bus().load64(pageAddr(ref) + off);
}

void
BufferCache::readData(Ref ref, u64 off, std::span<u8> out)
{
    assert(off + out.size() <= sim::kPageSize);
    kcopy_.copyOut(out, pageAddr(ref) + off);
}

BufferCache::WriteWindow::WriteWindow(BufferCache &cache, Ref ref)
    : cache_(cache), ref_(ref), window_(open(cache, ref))
{
}

os::WriteWindow
BufferCache::WriteWindow::open(BufferCache &cache, Ref ref)
{
    const Addr page = cache.pageAddr(ref);
    // A freshly allocated buffer may not be registered yet (getblk
    // for full overwrite); install its identity before writing.
    cache.guard_->install(page, cache.tagOf(ref));
    return cache.guard_->beginWrite(page);
}

BufferCache::WriteWindow::~WriteWindow() noexcept(false)
{
    if (std::uncaught_exceptions() > 0)
        return; // The machine is crashing mid-write; leave it torn.
    std::move(window_).commit(sim::kPageSize);
    const u32 f = cache_.flags(ref_);
    cache_.setFlags(ref_, f | kValid | kDirty);
    cache_.guard_->setDirty(window_.page(), true);
}

void
BufferCache::WriteWindow::store8(u64 off, u8 value)
{
    cache_.machine_.bus().store8(window_.page() + off, value);
}

void
BufferCache::WriteWindow::store16(u64 off, u16 value)
{
    cache_.machine_.bus().store16(window_.page() + off, value);
}

void
BufferCache::WriteWindow::store32(u64 off, u32 value)
{
    cache_.machine_.bus().store32(window_.page() + off, value);
}

void
BufferCache::WriteWindow::store64(u64 off, u64 value)
{
    cache_.machine_.bus().store64(window_.page() + off, value);
}

void
BufferCache::WriteWindow::copyIn(u64 off, std::span<const u8> data)
{
    assert(off + data.size() <= sim::kPageSize);
    cache_.kcopy_.copyIn(window_.page() + off, data);
}

void
BufferCache::WriteWindow::zero(u64 off, u64 n)
{
    assert(off + n <= sim::kPageSize);
    cache_.kcopy_.zero(window_.page() + off, n);
}

void
BufferCache::flushDelwri(bool sync)
{
    procs_.enter(ProcId::BufFlush);
    LockTable::Guard guard(locks_, bufLock_);
    std::vector<Ref> dirty;
    for (auto &[k, ref] : index_) {
        const u32 f = flags(ref);
        if ((f & kDelwri) && !(f & kBusy))
            dirty.push_back(ref);
    }
    // Sort by block number for elevator-ish service order.
    std::sort(dirty.begin(), dirty.end(), [this](Ref a, Ref b) {
        auto &bus = machine_.bus();
        return bus.load32(headerAddr(a) + kOffBlkno) <
               bus.load32(headerAddr(b) + kOffBlkno);
    });
    for (const Ref ref : dirty)
        diskWrite(ref, sync);
    if (sync)
        disk_->drain(machine_.clock());
}

u64
BufferCache::delwriCount()
{
    u64 count = 0;
    for (auto &[k, ref] : index_) {
        if (flags(ref) & kDelwri)
            ++count;
    }
    return count;
}

void
BufferCache::invalidateDev(DevNo dev)
{
    LockTable::Guard guard(locks_, bufLock_);
    for (auto it = index_.begin(); it != index_.end();) {
        const Ref ref = it->second;
        if (machine_.bus().load32(headerAddr(ref) + kOffDev) == dev) {
            guard_->invalidate(pageAddr(ref));
            setFlags(ref, 0);
            freeList_.push_back(ref);
            it = index_.erase(it);
        } else {
            ++it;
        }
    }
}

void
BufferCache::invalidateBlock(DevNo dev, BlockNo block)
{
    auto it = index_.find(key(dev, block));
    if (it == index_.end())
        return;
    const Ref ref = it->second;
    guard_->invalidate(pageAddr(ref));
    setFlags(ref, 0);
    freeList_.push_back(ref);
    index_.erase(it);
}

Addr
BufferCache::randomLiveHeaderAddr(support::Rng &rng) const
{
    if (index_.empty())
        return 0;
    const u64 skip = rng.below(index_.size());
    auto it = index_.begin();
    std::advance(it, skip);
    return headerAddr(it->second);
}

} // namespace rio::os
