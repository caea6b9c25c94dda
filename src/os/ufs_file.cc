/**
 * @file
 * UFS file contents: reads and writes through the UBC, truncation,
 * the BackingStore pull interface (page fill/spill), and the
 * durability operations (fsync/sync) the write policies hang off.
 */

#include <algorithm>
#include <cassert>

#include "os/dma.hh"
#include "os/ioretry.hh"
#include "os/ufs.hh"

namespace rio::os
{

Result<u64>
Ufs::readFile(InodeNo ino, u64 off, std::span<u8> out)
{
    procs_.enter(ProcId::UfsReadFile);
    auto inodeRes = iget(ino);
    if (!inodeRes.ok())
        return inodeRes.status();
    const InodeData &inode = inodeRes.value();
    if (inode.type != FileType::Regular)
        return OsStatus::IsDir;
    if (off >= inode.size)
        return u64{0};

    const u64 n = std::min<u64>(out.size(), inode.size - off);
    u64 done = 0;
    while (done < n) {
        const u64 pos = off + done;
        const u64 pageIdx = pos / kBlockSize;
        const u64 inPage = pos % kBlockSize;
        const u64 chunk = std::min(n - done, kBlockSize - inPage);
        const Ubc::Ref ref = ubc_.getPage(dev_, ino, pageIdx, true);
        ubc_.read(ref, inPage, out.subspan(done, chunk));
        done += chunk;
    }
    return n;
}

Result<u64>
Ufs::writeFile(InodeNo ino, u64 off, std::span<const u8> data)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsWriteFile);
    auto inodeRes = iget(ino);
    if (!inodeRes.ok())
        return inodeRes.status();
    InodeData inode = inodeRes.value();
    if (inode.type != FileType::Regular)
        return OsStatus::IsDir;
    if (off + data.size() > kMaxFileBytes)
        return OsStatus::TooBig;

    const u64 n = data.size();
    const u64 finalSize = std::max(inode.size, off + n);
    u64 done = 0;
    while (done < n) {
        const u64 pos = off + done;
        const u64 pageIdx = pos / kBlockSize;
        const u64 inPage = pos % kBlockSize;
        const u64 chunk = std::min(n - done, kBlockSize - inPage);

        // Allocate the backing block now so metadata stays coherent
        // with the cached data (Rio keeps both in memory; other
        // policies will push both out).
        auto block = bmap(ino, inode, pageIdx, true);
        if (!block.ok()) {
            if (done > 0) {
                inode.size = std::max(inode.size, off + done);
                inode.mtime = machine_.clock().now();
                iupdate(ino, inode);
            }
            return block.status();
        }

        // A partial overwrite of existing content must read the page
        // first; whole-page writes and fresh extensions must not.
        const u64 pageStart = pageIdx * kBlockSize;
        const bool wholePage = inPage == 0 && chunk == kBlockSize;
        const bool hasOldData = pageStart < inode.size;
        const Ubc::Ref ref =
            ubc_.getPage(dev_, ino, pageIdx, !wholePage && hasOldData);

        const u32 newValid = static_cast<u32>(
            std::min<u64>(kBlockSize, finalSize - pageStart));
        ubc_.write(ref, inPage, data.subspan(done, chunk), newValid);
        done += chunk;
    }

    inode.size = finalSize;
    inode.mtime = machine_.clock().now();
    iupdate(ino, inode);
    return n;
}

Result<void>
Ufs::truncate(InodeNo ino, u64 newSize)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsTruncate);
    auto inodeRes = iget(ino);
    if (!inodeRes.ok())
        return inodeRes.status();
    InodeData inode = inodeRes.value();
    if (inode.type != FileType::Regular)
        return OsStatus::IsDir;
    if (newSize >= inode.size) {
        // Growing truncate: extend with a hole.
        if (newSize > kMaxFileBytes)
            return OsStatus::TooBig;
        inode.size = newSize;
        inode.mtime = machine_.clock().now();
        iupdate(ino, inode);
        return {};
    }
    ubc_.truncateFile(dev_, ino, newSize);
    const u64 keepBlocks = (newSize + kBlockSize - 1) / kBlockSize;
    freeFileBlocks(ino, inode, keepBlocks);
    inode.size = newSize;
    inode.mtime = machine_.clock().now();
    iupdate(ino, inode);
    return {};
}

u32
Ufs::fillPage(DevNo dev, InodeNo ino, u64 pageIdx, Addr pagePhys)
{
    assert(dev == dev_);
    (void)dev; // Only the assert reads it.
    auto inodeRes = iget(ino);
    if (!inodeRes.ok()) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc fill: page belongs to a free inode");
    }
    InodeData inode = inodeRes.value();
    const u64 pageStart = pageIdx * kBlockSize;
    if (pageStart >= inode.size) {
        kcopy_.zero(sim::physToKseg(pagePhys), kBlockSize);
        return 0;
    }
    const u32 valid = static_cast<u32>(
        std::min<u64>(kBlockSize, inode.size - pageStart));
    auto block = bmap(ino, inode, pageIdx, false);
    if (!block.ok()) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc fill: file block beyond maximum size");
    }
    if (block.value() == 0) {
        // Hole: reads as zeroes.
        kcopy_.zero(sim::physToKseg(pagePhys), kBlockSize);
        return valid;
    }
    if (journal_ != nullptr &&
        journal_->fetchBlock(dev_, block.value(), scratch_)) {
        // data=journal: the logged image is newer than the home copy
        // until checkpoint, and costs no disk time to serve.
        std::fill(scratch_.begin() + valid, scratch_.end(), 0);
        dmaWrite(machine_.bus(), pagePhys, scratch_);
        return valid;
    }
    procs_.enter(ProcId::DiskStrategy);
    // Readahead overlap: when this fill continues a sequential
    // stream, the kernel's read-ahead had the CPU time since the
    // previous fill to run; that much of the service time is hidden.
    SimNs overlap = 0;
    const SimNs now = machine_.clock().now();
    if (ino == lastFillIno_ && pageIdx == lastFillPage_ + 1 &&
        now >= lastFillEnd_) {
        overlap = now - lastFillEnd_;
    }
    const IoOutcome got =
        retryRead(*disk_,
                  static_cast<SectorNo>(block.value()) *
                      sim::kSectorsPerBlock,
                  sim::kSectorsPerBlock, scratch_, machine_.clock(),
                  config_.ioRetry, overlap);
    if (!got.ok() && config_.ioRetry.enabled) {
        machine_.crash(sim::CrashCause::KernelPanic,
                       "panic: unrecoverable file data read");
    }
    // Retry discipline off: a failed fill silently hands the page
    // whatever the scratch buffer last held (legacy behaviour).
    lastFillIno_ = ino;
    lastFillPage_ = pageIdx;
    lastFillEnd_ = machine_.clock().now();
    // Stale bytes past EOF on the last block must read as zeroes if
    // the file is later extended over them.
    std::fill(scratch_.begin() + valid, scratch_.end(), 0);
    dmaWrite(machine_.bus(), pagePhys, scratch_);
    return valid;
}

void
Ufs::spillPage(DevNo dev, InodeNo ino, u64 pageIdx, Addr pagePhys,
               u32 validBytes, bool sync)
{
    assert(dev == dev_);
    (void)dev; // Only the assert reads it.
    (void)validBytes;
    auto inodeRes = iget(ino);
    if (!inodeRes.ok()) {
        machine_.crash(sim::CrashCause::ConsistencyCheck,
                       "ubc spill: page belongs to a free inode");
    }
    InodeData inode = inodeRes.value();
    auto block = bmap(ino, inode, pageIdx, true);
    if (!block.ok()) {
        machine_.crash(sim::CrashCause::KernelPanic,
                       "panic: file system full during pageout");
    }
    if (journal_ != nullptr && journal_->wantsDataJournal()) {
        // ext3 data=journal: the data block goes through the log as
        // part of the compound transaction; the home copy is written
        // at checkpoint.
        journal_->appendData(dev_, block.value(), pagePhys);
        return;
    }
    procs_.enter(ProcId::DiskStrategy);
    dmaRead(machine_.mem(), pagePhys, scratch_);
    const SectorNo sector =
        static_cast<SectorNo>(block.value()) * sim::kSectorsPerBlock;
    const IoOutcome put =
        retryWrite(*disk_, sector, sim::kSectorsPerBlock, scratch_,
                   machine_.clock(), config_.ioRetry,
                   /*queued=*/!sync);
    if (!put.ok() && config_.ioRetry.enabled) {
        // File data never reached the platter: stop taking new
        // updates rather than lose them silently.
        degradeReadOnly();
    }
}

void
Ufs::fsyncFile(InodeNo ino, bool waitMetadata)
{
    pushSuperCounters();
    ubc_.flushFile(dev_, ino, true);
    if (journal_ != nullptr) {
        // fsync durability = the commit record is durable.
        journal_->commitTransaction();
    }
    buf_.flushDelwri(waitMetadata);
    if (waitMetadata)
        disk_->drain(machine_.clock());
}

void
Ufs::syncAll(bool wait)
{
    pushSuperCounters();
    ubc_.flushAll(wait);
    if (journal_ != nullptr) {
        journal_->commitTransaction();
        if (wait) {
            // Unmount path: home copies must be current before the
            // superblock goes clean (replay is skipped on clean).
            journal_->checkpointNow();
        }
    }
    buf_.flushDelwri(wait);
    if (wait)
        disk_->drain(machine_.clock());
}

} // namespace rio::os
