#include "os/journal.hh"

#include <algorithm>

#include "os/dma.hh"
#include "os/ioretry.hh"
#include "os/ufs.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"

namespace rio::os
{

namespace
{

/** Max block images one descriptor can name. */
constexpr u32
descMaxEntries()
{
    return static_cast<u32>(
        (Ufs::kBlockSize - Journal::kDescEntries) / 8);
}

/** Validate + parse a journal superblock image. */
bool
parseJsb(std::span<const u8> jsb, u32 &flags, u64 &headSeq,
         u32 &headSlot, u32 &dataSlots)
{
    if (support::loadLE<u32>(jsb, 0) != Journal::kJsbMagic)
        return false;
    const u32 want = support::loadLE<u32>(jsb, Journal::kJsbChecksum);
    const u32 got =
        support::checksum32(jsb.first(Journal::kJsbChecksum));
    if (want != got)
        return false;
    flags = support::loadLE<u32>(jsb, Journal::kJsbFlags);
    headSeq = support::loadLE<u64>(jsb, Journal::kJsbHeadSeq);
    headSlot = support::loadLE<u32>(jsb, Journal::kJsbHeadSlot);
    dataSlots = support::loadLE<u32>(jsb, Journal::kJsbDataSlots);
    return dataSlots > 0 && headSlot < dataSlots && headSeq > 0;
}

} // namespace

Journal::Journal(sim::Machine &machine, KProcTable &procs,
                 const KernelConfig &config)
    : machine_(machine), procs_(procs), config_(config)
{
}

void
Journal::attach(u32 logStart, u32 logBlocks, sim::Disk &disk,
                IoRetryPolicy policy)
{
    disk_ = &disk;
    policy_ = policy;
    logStart_ = logStart;
    dataSlots_ = logBlocks > 1 ? logBlocks - 1 : 0;
    // Clamp the transaction budget so a commit always fits after one
    // checkpoint: need = maxTxBlocks_ + 2 <= dataSlots_.
    maxTxBlocks_ = dataSlots_ >= 6
                       ? std::min(config_.journal.maxTxBlocks,
                                  (dataSlots_ - 2) / 2)
                       : 0;
    tx_.clear();
    txIndex_.clear();
    txOpen_ = false;
    inCommit_ = false;
    checkpointMap_.clear();
    usedSlots_ = 0;
    commitsSinceCkpt_ = 0;
    degraded_ = false;
    if (dataSlots_ == 0)
        return;

    // Adopt the on-disk journal superblock (it survives remounts and
    // was advanced by replay); a fresh or foreign log area gets a new
    // one. A flags mismatch (checksumCommit toggled between mounts)
    // also rewrites it, since replay trusts the JSB's flag.
    std::vector<u8> jsb(Ufs::kBlockSize, 0);
    const IoOutcome got = retryRead(
        *disk_,
        static_cast<SectorNo>(logStart_) * sim::kSectorsPerBlock,
        sim::kSectorsPerBlock, jsb, machine_.clock(), policy_);
    u32 flags = 0, headSlot = 0, onDiskSlots = 0;
    u64 headSeq = 1;
    const bool valid = got.ok() &&
                       parseJsb(jsb, flags, headSeq, headSlot,
                                onDiskSlots) &&
                       onDiskSlots == dataSlots_;
    const u32 wantFlags = config_.journal.checksumCommit ? 1u : 0u;
    if (valid) {
        headSeq_ = headSeq;
        headSlot_ = headSlot;
    } else {
        headSeq_ = 1;
        headSlot_ = 0;
    }
    nextSeq_ = headSeq_;
    tailSlot_ = headSlot_;
    if (!valid || flags != wantFlags)
        writeJsb();
}

void
Journal::degradeNow()
{
    if (degraded_)
        return;
    degraded_ = true;
    if (degrade_)
        degrade_();
}

void
Journal::writeJsb()
{
    std::vector<u8> jsb(Ufs::kBlockSize, 0);
    support::storeLE<u32>(jsb, 0, kJsbMagic);
    support::storeLE<u32>(jsb, kJsbFlags,
                          config_.journal.checksumCommit ? 1u : 0u);
    support::storeLE<u64>(jsb, kJsbHeadSeq, headSeq_);
    support::storeLE<u32>(jsb, kJsbHeadSlot, headSlot_);
    support::storeLE<u32>(jsb, kJsbDataSlots, dataSlots_);
    support::storeLE<u32>(
        jsb, kJsbChecksum,
        support::checksum32(
            std::span<const u8>(jsb).first(kJsbChecksum)));
    // Synchronous: the write waits behind everything already queued
    // (checkpoint home writes included), so the head never advances
    // past images that are not yet durable — the freeing rule.
    const IoOutcome put = retryWrite(
        *disk_,
        static_cast<SectorNo>(logStart_) * sim::kSectorsPerBlock,
        sim::kSectorsPerBlock, jsb, machine_.clock(), policy_,
        /*queued=*/false);
    if (!put.ok())
        degradeNow();
}

void
Journal::append(DevNo dev, BlockNo block, Addr pageAddr, bool isData)
{
    (void)dev;
    if (disk_ == nullptr || dataSlots_ == 0 || maxTxBlocks_ == 0)
        return;
    procs_.enter(ProcId::JournalAppend);

    // Write absorption: a block updated again inside the open
    // transaction just refreshes its image. Committed images are
    // sealed — a re-update of a checkpoint-pending block gets a
    // fresh entry in the open transaction instead.
    if (txOpen_) {
        auto it = txIndex_.find(block);
        if (it != txIndex_.end()) {
            TxBlock &entry = tx_[it->second];
            entry.data = entry.data && isData;
            dmaRead(machine_.mem(), pageAddr, entry.image);
            return;
        }
    }
    if (!txOpen_)
        txBegin();
    txAppend(block, pageAddr, isData);
    if (static_cast<u32>(tx_.size()) >= maxTxBlocks_)
        txCommit();
}

void
Journal::appendMetadata(DevNo dev, BlockNo block, Addr pageAddr)
{
    append(dev, block, pageAddr, false);
}

void
Journal::appendData(DevNo dev, BlockNo block, Addr pageAddr)
{
    append(dev, block, pageAddr, true);
}

void
Journal::txBegin()
{
    txOpen_ = true;
    txOpenedAt_ = machine_.clock().now();
}

void
Journal::txAppend(BlockNo block, Addr pageAddr, bool isData)
{
    TxBlock entry;
    entry.home = block;
    entry.data = isData;
    entry.image.resize(Ufs::kBlockSize);
    dmaRead(machine_.mem(), pageAddr, entry.image);
    txIndex_[block] = tx_.size();
    tx_.push_back(std::move(entry));
}

void
Journal::txCommit()
{
    if (inCommit_)
        return; // Size trigger re-entered during the ordered flush.
    inCommit_ = true;

    // Ordered mode: file data reaches the disk queue before the
    // commit record does; the FIFO queue turns that into the
    // data-before-metadata durability ordering ext3 promises. The
    // flush may allocate (bitmap/indirect updates), growing this
    // transaction — run it before sizing the log write.
    if (config_.journal.mode == JournalMode::Ordered && orderedFlush_)
        orderedFlush_();

    const u32 count = static_cast<u32>(tx_.size());
    if (count == 0) {
        txOpen_ = false;
        inCommit_ = false;
        return;
    }
    const u32 need = count + 2;
    if (freeSlots() < need)
        checkpoint();
    if (need > dataSlots_ || count > descMaxEntries()) {
        // Cannot be represented (log too small for the flush-grown
        // transaction): the updates survive only in memory. Same
        // escalation as an unwritable log.
        degradeNow();
    } else {
        machine_.events().emit(sim::EventKind::JournalTxCommit,
                               nextSeq_);
        staging_.assign(static_cast<size_t>(need) * Ufs::kBlockSize,
                        0);
        const std::span<u8> desc =
            std::span<u8>(staging_).first(Ufs::kBlockSize);
        support::storeLE<u32>(desc, 0, kDescMagic);
        support::storeLE<u64>(desc, kDescSeq, nextSeq_);
        support::storeLE<u32>(desc, kDescCount, count);
        for (u32 i = 0; i < count; ++i) {
            support::storeLE<u32>(desc, kDescEntries + 8ull * i,
                                  tx_[i].home);
            support::storeLE<u32>(desc, kDescEntries + 8ull * i + 4,
                                  tx_[i].data ? 1u : 0u);
            std::copy(tx_[i].image.begin(), tx_[i].image.end(),
                      staging_.begin() +
                          static_cast<size_t>(1 + i) *
                              Ufs::kBlockSize);
        }
        const std::span<u8> commit =
            std::span<u8>(staging_).subspan(
                static_cast<size_t>(1 + count) * Ufs::kBlockSize,
                Ufs::kBlockSize);
        support::storeLE<u32>(commit, 0, kCommitMagic);
        support::storeLE<u64>(commit, kCmtSeq, nextSeq_);
        support::storeLE<u32>(commit, kCmtCount, count);
        const u32 payloadSum =
            config_.journal.checksumCommit
                ? support::checksum32(std::span<const u8>(
                      staging_.data(),
                      static_cast<size_t>(1 + count) *
                          Ufs::kBlockSize))
                : 0;
        support::storeLE<u32>(commit, kCmtChecksum, payloadSum);

        // Queued sequential runs, split only at the log wrap. The
        // commit block is last in the final run: with a FIFO queue a
        // crash can tear the run, but never land the commit without
        // its payload.
        procs_.enter(ProcId::DiskStrategy);
        bool ok = true;
        u32 written = 0;
        while (written < need) {
            const u32 slot = (tailSlot_ + written) % dataSlots_;
            const u32 run =
                std::min(need - written, dataSlots_ - slot);
            const SectorNo sector =
                static_cast<SectorNo>(logStart_ + 1 + slot) *
                sim::kSectorsPerBlock;
            const IoOutcome outcome = retryWrite(
                *disk_, sector, run * sim::kSectorsPerBlock,
                std::span<const u8>(
                    staging_.data() +
                        static_cast<size_t>(written) * Ufs::kBlockSize,
                    static_cast<size_t>(run) * Ufs::kBlockSize),
                machine_.clock(), policy_, /*queued=*/true);
            if (!outcome.ok())
                ok = false;
            written += run;
        }
        if (!ok) {
            // The transaction never became durable in the log; the
            // images still move to the checkpoint map so the cache
            // and future reads stay coherent, but updates may be
            // lost on a crash — stop taking new ones.
            degradeNow();
        }
        tailSlot_ = (tailSlot_ + need) % dataSlots_;
        usedSlots_ += need;
        ++nextSeq_;
        ++txCommitted_;
        blocksLogged_ += count;
    }

    for (TxBlock &entry : tx_)
        checkpointMap_[entry.home] = std::move(entry.image);
    tx_.clear();
    txIndex_.clear();
    txOpen_ = false;
    inCommit_ = false;
    ++commitsSinceCkpt_;
    if (config_.journal.checkpointEveryCommits != 0 &&
        commitsSinceCkpt_ >= config_.journal.checkpointEveryCommits)
        checkpoint();
}

void
Journal::checkpoint()
{
    if (usedSlots_ == 0 && checkpointMap_.empty())
        return;
    procs_.enter(ProcId::DiskStrategy);
    bool ok = true;
    for (const auto &[home, image] : checkpointMap_) {
        machine_.events().emit(sim::EventKind::JournalCheckpointWrite,
                               home);
        const IoOutcome put = retryWrite(
            *disk_,
            static_cast<SectorNo>(home) * sim::kSectorsPerBlock,
            sim::kSectorsPerBlock, image, machine_.clock(), policy_,
            /*queued=*/true);
        if (!put.ok())
            ok = false;
    }
    if (!ok) {
        // A home copy never made it: do not reclaim the log (replay
        // still holds the image), degrade instead.
        degradeNow();
        return;
    }
    checkpointMap_.clear();
    headSlot_ = tailSlot_;
    headSeq_ = nextSeq_;
    usedSlots_ = 0;
    commitsSinceCkpt_ = 0;
    machine_.events().emit(sim::EventKind::JournalCheckpointAdvance,
                           headSeq_);
    writeJsb();
    ++checkpointsDone_;
}

bool
Journal::fetchBlock(DevNo dev, BlockNo block, std::span<u8> out)
{
    (void)dev;
    if (txOpen_) {
        auto it = txIndex_.find(block);
        if (it != txIndex_.end()) {
            const std::vector<u8> &image = tx_[it->second].image;
            std::copy(image.begin(), image.end(), out.begin());
            return true;
        }
    }
    auto it = checkpointMap_.find(block);
    if (it != checkpointMap_.end()) {
        std::copy(it->second.begin(), it->second.end(), out.begin());
        return true;
    }
    return false;
}

void
Journal::commitTransaction()
{
    if (!txOpen_)
        return;
    txCommit(); // riolint:allow(R9) closes the transaction the append path opened across syscalls
}

void
Journal::checkpointNow()
{
    commitTransaction();
    checkpoint();
}

void
Journal::tick()
{
    if (!txOpen_ || disk_ == nullptr)
        return;
    if (machine_.clock().now() - txOpenedAt_ >=
        config_.journal.commitIntervalNs)
        commitTransaction();
}

/* ----------------------------------------------------------------- */
/* Boot-time replay                                                  */
/* ----------------------------------------------------------------- */

u64
Journal::replay(sim::Disk &disk, sim::SimClock &clock,
                const IoRetryPolicy &policy, JournalReplayStats *stats)
{
    const sim::EventHook &events = disk.events();
    // Read the superblock to find the log area. An unreadable
    // superblock leaves the zeroed image and the magic check bails.
    std::vector<u8> sb(Ufs::kBlockSize, 0);
    (void)retryRead(disk, 0, sim::kSectorsPerBlock, sb, clock, policy);
    if (support::loadLE<u32>(sb, Ufs::kSbMagic) != Ufs::kSuperMagic)
        return 0;
    const u32 logStart = support::loadLE<u32>(sb, Ufs::kSbLogStart);
    const u32 logBlocks = support::loadLE<u32>(sb, Ufs::kSbLogBlocks);
    if (logBlocks == 0)
        return 0;

    // No valid journal superblock (never attached, or torn): there is
    // no committed transaction to apply.
    std::vector<u8> jsb(Ufs::kBlockSize, 0);
    const IoOutcome got = retryRead(
        disk, static_cast<SectorNo>(logStart) * sim::kSectorsPerBlock,
        sim::kSectorsPerBlock, jsb, clock, policy);
    u32 flags = 0, headSlot = 0, dataSlots = 0;
    u64 headSeq = 0;
    if (!got.ok() ||
        !parseJsb(jsb, flags, headSeq, headSlot, dataSlots) ||
        dataSlots != logBlocks - 1)
        return 0;
    const bool checksummed = (flags & 1u) != 0;

    const auto readSlot = [&](u32 slot, std::span<u8> out) {
        return retryRead(disk,
                         static_cast<SectorNo>(logStart + 1 + slot) *
                             sim::kSectorsPerBlock,
                         sim::kSectorsPerBlock, out, clock, policy)
            .ok();
    };

    // Scan: walk transactions forward from the head, validating the
    // chain. Any break — bad magic, a sequence number from another
    // log generation (stale wrap), a short read, a commit checksum
    // mismatch (torn commit) — ends the walk; everything before it
    // is durable and everything after never fully committed.
    struct StagedBlock
    {
        BlockNo home;
        std::vector<u8> image;
    };
    struct StagedTx
    {
        u64 seq;
        std::vector<StagedBlock> blocks;
    };
    std::vector<StagedTx> txs;
    std::vector<u8> desc(Ufs::kBlockSize);
    std::vector<u8> commit(Ufs::kBlockSize);
    std::vector<u8> payload;
    u32 slot = headSlot;
    u64 expect = headSeq;
    u32 walked = 0;
    while (walked + 2 <= dataSlots) {
        if (!readSlot(slot, desc))
            break;
        if (support::loadLE<u32>(desc, 0) != kDescMagic)
            break;
        if (support::loadLE<u64>(desc, kDescSeq) != expect)
            break;
        const u32 count = support::loadLE<u32>(desc, kDescCount);
        if (count == 0 || count > descMaxEntries() ||
            walked + count + 2 > dataSlots)
            break;
        payload.assign(static_cast<size_t>(1 + count) *
                           Ufs::kBlockSize,
                       0);
        std::copy(desc.begin(), desc.end(), payload.begin());
        bool readOk = true;
        for (u32 i = 0; i < count && readOk; ++i) {
            readOk = readSlot(
                (slot + 1 + i) % dataSlots,
                std::span<u8>(payload).subspan(
                    static_cast<size_t>(1 + i) * Ufs::kBlockSize,
                    Ufs::kBlockSize));
        }
        if (!readOk || !readSlot((slot + 1 + count) % dataSlots,
                                 commit))
            break;
        if (support::loadLE<u32>(commit, 0) != kCommitMagic ||
            support::loadLE<u64>(commit, kCmtSeq) != expect ||
            support::loadLE<u32>(commit, kCmtCount) != count)
            break;
        if (checksummed &&
            support::checksum32(std::span<const u8>(payload)) !=
                support::loadLE<u32>(commit, kCmtChecksum)) {
            if (stats != nullptr)
                ++stats->rejectedChecksum;
            break;
        }
        StagedTx tx;
        tx.seq = expect;
        for (u32 i = 0; i < count; ++i) {
            const BlockNo home = support::loadLE<u32>(
                desc, kDescEntries + 8ull * i);
            const auto begin =
                payload.begin() +
                static_cast<size_t>(1 + i) * Ufs::kBlockSize;
            tx.blocks.push_back(
                {home, std::vector<u8>(begin,
                                       begin + Ufs::kBlockSize)});
        }
        txs.push_back(std::move(tx));
        slot = (slot + count + 2) % dataSlots;
        ++expect;
        walked += count + 2;
    }
    events.emit(sim::EventKind::ReplayScanDone, txs.size());

    // Apply: pure idempotent block writes, in commit order. A crash
    // anywhere in here leaves the JSB untouched, so the next replay
    // walks the identical chain and re-applies the identical images.
    u64 applied = 0;
    for (const StagedTx &tx : txs) {
        for (const StagedBlock &block : tx.blocks) {
            events.emit(sim::EventKind::ReplayApplyBlock, block.home);
            const IoOutcome put = retryWrite(
                disk,
                static_cast<SectorNo>(block.home) *
                    sim::kSectorsPerBlock,
                sim::kSectorsPerBlock, block.image, clock, policy,
                /*queued=*/true);
            if (put.ok())
                ++applied;
            // An unwritable home block is left to fsck: the in-place
            // copy may be stale, which the scan repairs
            // conservatively.
        }
    }
    disk.drain(clock);
    events.emit(sim::EventKind::ReplayApplyDone, applied);

    // Advance the head past what was applied (checkpoint-of-replay).
    // Only after the applies drained — crash before this write and
    // the old JSB replays everything again; crash during it and the
    // superblock checksum rejects the tear, with the same result.
    if (!txs.empty()) {
        events.emit(sim::EventKind::ReplayJsbAdvance, expect);
        std::vector<u8> out(Ufs::kBlockSize, 0);
        support::storeLE<u32>(out, 0, kJsbMagic);
        support::storeLE<u32>(out, kJsbFlags, flags);
        support::storeLE<u64>(out, kJsbHeadSeq, expect);
        support::storeLE<u32>(out, kJsbHeadSlot, slot);
        support::storeLE<u32>(out, kJsbDataSlots, dataSlots);
        support::storeLE<u32>(
            out, kJsbChecksum,
            support::checksum32(
                std::span<const u8>(out).first(kJsbChecksum)));
        (void)retryWrite(
            disk,
            static_cast<SectorNo>(logStart) * sim::kSectorsPerBlock,
            sim::kSectorsPerBlock, out, clock, policy,
            /*queued=*/false);
    }
    if (stats != nullptr) {
        stats->applied = applied;
        stats->transactions = txs.size();
    }
    return applied;
}

} // namespace rio::os
