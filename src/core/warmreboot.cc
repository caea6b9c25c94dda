#include "core/warmreboot.hh"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "os/ioretry.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"

namespace rio::core
{

using L = RegistryLayout;

namespace
{

/** Sectors per dump transfer: big enough to amortize seeks, small
 *  enough that a transient mid-dump costs one chunk's retry. */
constexpr u64 kDumpChunkSectors = 2048;

/** @{ Checkpoint record field offsets (see warmreboot.hh layout). */
constexpr u64 kCkMagic = 0;
constexpr u64 kCkVersion = 4;
constexpr u64 kCkFlags = 8;
constexpr u64 kCkDumpSectors = 16;
constexpr u64 kCkDumpBytes = 24;
constexpr u64 kCkDumpChecksum = 32;
constexpr u64 kCkMetadataProcessed = 40;
constexpr u64 kCkDataProcessed = 48;
constexpr u64 kCkRecordChecksum = 56;
constexpr u64 kCkRecordBytes = 56; ///< Bytes the record checksum covers.
/** @} */

/** Fold an op's retry cost into the per-pass recovery accounting. */
os::IoOutcome
track(RecoveryReport &recovery, u64 sectors, os::IoOutcome outcome)
{
    recovery.retriedSectors += u64{outcome.retries} * sectors;
    recovery.remappedSectors += outcome.remaps;
    if (!outcome.ok())
        recovery.abandonedSectors += sectors;
    return outcome;
}

} // namespace

const char *
recoveryPhaseName(RecoveryPhase phase)
{
    switch (phase) {
      case RecoveryPhase::Dump:
        return "dump";
      case RecoveryPhase::MetadataRestore:
        return "metadata-restore";
      case RecoveryPhase::DataRestore:
        return "data-restore";
      case RecoveryPhase::Done:
        return "done";
    }
    return "?";
}

WarmReboot::WarmReboot(sim::Machine &machine, RestorePolicy policy)
    : machine_(machine), policy_(policy)
{}

SectorNo
WarmReboot::ckptSector() const
{
    return machine_.swap().numSectors() - 1;
}

void
WarmReboot::noteStep(RecoveryPhase phase, u64 step, u64 total)
{
    machine_.events().emit(
        static_cast<sim::EventKind>(
            static_cast<u32>(sim::EventKind::RecoveryDump) +
            static_cast<u32>(phase)),
        step, total);
}

bool
WarmReboot::readCheckpoint(Checkpoint &out, RecoveryReport &recovery)
{
    std::vector<u8> sector(sim::kSectorSize, 0);
    const os::IoOutcome got =
        track(recovery, 1,
              os::retryRead(machine_.swap(), ckptSector(), 1, sector,
                            machine_.clock(), io_));
    if (!got.ok())
        return false;
    std::span<const u8> s(sector);
    if (support::loadLE<u32>(s, kCkMagic) != kCkptMagic ||
        support::loadLE<u32>(s, kCkVersion) != kCkptVersion)
        return false;
    const u32 want = support::loadLE<u32>(s, kCkRecordChecksum);
    const u32 got32 = support::checksum32(
        std::span<const u8>(sector.data(), kCkRecordBytes));
    if (want != got32)
        return false;
    out.flags = support::loadLE<u32>(s, kCkFlags);
    out.dumpSectors = support::loadLE<u64>(s, kCkDumpSectors);
    out.dumpBytes = support::loadLE<u64>(s, kCkDumpBytes);
    out.dumpChecksum = support::loadLE<u32>(s, kCkDumpChecksum);
    out.metadataProcessed =
        support::loadLE<u64>(s, kCkMetadataProcessed);
    out.dataProcessed = support::loadLE<u64>(s, kCkDataProcessed);
    return true;
}

void
WarmReboot::writeCheckpoint(RecoveryReport &recovery)
{
    std::vector<u8> sector(sim::kSectorSize, 0);
    std::span<u8> s(sector);
    support::storeLE<u32>(s, kCkMagic, kCkptMagic);
    support::storeLE<u32>(s, kCkVersion, kCkptVersion);
    support::storeLE<u32>(s, kCkFlags, ckpt_.flags);
    support::storeLE<u64>(s, kCkDumpSectors, ckpt_.dumpSectors);
    support::storeLE<u64>(s, kCkDumpBytes, ckpt_.dumpBytes);
    support::storeLE<u32>(s, kCkDumpChecksum, ckpt_.dumpChecksum);
    support::storeLE<u64>(s, kCkMetadataProcessed,
                          ckpt_.metadataProcessed);
    support::storeLE<u64>(s, kCkDataProcessed, ckpt_.dataProcessed);
    support::storeLE<u32>(
        s, kCkRecordChecksum,
        support::checksum32(
            std::span<const u8>(sector.data(), kCkRecordBytes)));
    const os::IoOutcome put =
        track(recovery, 1,
              os::retryWrite(machine_.swap(), ckptSector(), 1, sector,
                             machine_.clock(), io_));
    if (put.ok())
        ++recovery.checkpointWrites;
    // A checkpoint that cannot be written only means the next pass
    // resumes from an earlier point; every restore step is
    // idempotent, so recovery still converges.
}

/**
 * rio-nv: if the NV mirror holds a copy of @p entry's shadow page
 * that passes the entry's location-bound checksum, stage it into
 * @p dump at the shadow address and return that address; 0
 * otherwise. Must stay in lockstep with the oracle's nvShadowMatches
 * (harness/oracle.cc).
 */
Addr
WarmReboot::stageNvShadow(const NvMirrorGraft &graft,
                          RecoveryImage &dump,
                          const RegistryEntry &entry, u64 n)
{
    if (!graft.valid || entry.shadowAddr == 0 || entry.checksum == 0)
        return 0;
    const auto &reg =
        machine_.mem().region(sim::RegionKind::Registry);
    if (entry.shadowAddr < reg.base ||
        entry.shadowAddr + sim::kPageSize > reg.base + reg.size)
        return 0;
    const u64 off = entry.shadowAddr - reg.base;
    const std::span<const u8> body(graft.body);
    if (bindChecksum(support::checksum32(body.subspan(off, n)),
                     entry.diskBlock) != entry.checksum)
        return 0;
    const auto page = body.subspan(off, sim::kPageSize);
    std::copy(page.begin(), page.end(),
              dump.writableRegistry().begin() +
                  static_cast<std::ptrdiff_t>(off));
    return entry.shadowAddr;
}

WarmRebootReport
WarmReboot::dumpAndRestoreMetadata()
{
    WarmRebootReport report;
    report.memoryPreserved = machine_.config().memorySurvivesReset;

    auto &mem = machine_.mem();
    auto &swap = machine_.swap();
    auto &clock = machine_.clock();

    // --- Dump all of physical memory to the swap partition. -------
    // Performed by the (healthy) booting kernel, so it always works —
    // provided the dump actually fits. A partial tail sector is
    // padded out (round up, never down), and a dump larger than the
    // swap partition is refused outright: a partial dump would make
    // the user-level data restore replay pages that were never
    // written, so the failure is recorded instead.
    //
    // Nothing writes physical memory from here until the next kernel
    // boots, so a fresh pass reads the image in place: the swap dump
    // is written from it and the metadata restore reads it, with no
    // host copy beyond the Registry region the rio-nv graft rewrites.
    const auto image = mem.image();
#ifndef NDEBUG
    const u32 imageSumBefore = support::checksum32(image);
#endif
    report.dumpBytes = image.size();
    const u64 fullSectors = image.size() / sim::kSectorSize;
    const u64 tailBytes = image.size() % sim::kSectorSize;
    const u64 dumpSectors = fullSectors + (tailBytes != 0 ? 1 : 0);
    const bool fits = dumpSectors <= swap.numSectors();
    // Re-entrancy needs one sector past the dump for the progress
    // record; without it (or by policy) recovery is single-shot.
    const bool ckptRoom = policy_.reentrantRecovery && fits &&
                          dumpSectors + 1 <= swap.numSectors();

    // --- Resume detection. ----------------------------------------
    // A prior pass that crashed mid-recovery left a progress record
    // in the last swap sector. Trust it only after the dump image it
    // describes re-verifies against its recorded checksum: the
    // second crash (or decaying media) may have eaten either.
    ckptActive_ = false;
    bool resumed = false;
    // A resumed pass's image: the first crash's dump, read back.
    std::vector<u8> fromSwap;
    if (ckptRoom) {
        Checkpoint prior;
        if (readCheckpoint(prior, report.recovery) &&
            (prior.flags & kFlagDumpComplete) != 0 &&
            (prior.flags & kFlagAllDone) == 0 &&
            prior.dumpBytes == image.size() &&
            prior.dumpSectors == dumpSectors) {
            fromSwap.assign(dumpSectors * sim::kSectorSize, 0);
            bool readOk = true;
            for (u64 done = 0; done < dumpSectors;) {
                const u64 n = std::min(kDumpChunkSectors,
                                       dumpSectors - done);
                const os::IoOutcome got = track(
                    report.recovery, n,
                    os::retryRead(
                        swap, done, n,
                        std::span<u8>(fromSwap)
                            .subspan(done * sim::kSectorSize,
                                     n * sim::kSectorSize),
                        clock, io_));
                if (!got.ok()) {
                    readOk = false;
                    break;
                }
                done += n;
            }
            const u32 sum =
                readOk ? support::checksum32(std::span<const u8>(
                             fromSwap.data(), image.size()))
                       : 0;
            if (readOk && sum == prior.dumpChecksum) {
                ckpt_ = prior;
                ckptActive_ = true;
                resumed = true;
                report.recovery.resumed = true;
                report.recovery.resumePhase = static_cast<u8>(
                    (prior.flags & kFlagMetadataComplete) != 0
                        ? RecoveryPhase::DataRestore
                        : RecoveryPhase::MetadataRestore);
            } else {
                // Checkpoint present but the dump it promises is
                // gone: fall back to a fresh pass from the (still
                // surviving) memory image.
                report.recovery.dumpChecksumBad = true;
                fromSwap = {};
            }
        }
    }

    if (!resumed) {
        ckpt_ = Checkpoint{};
        if (!fits) {
            report.recovery.dumpOk = false;
            report.recovery.dumpShortfallBytes =
                image.size() - swap.numSectors() * sim::kSectorSize;
        } else {
            const u64 chunkSteps =
                (fullSectors + kDumpChunkSectors - 1) /
                kDumpChunkSectors;
            const u64 totalSteps =
                chunkSteps + (tailBytes != 0 ? 1 : 0);
            u64 step = 0;
            bool failed = false;
            for (u64 written = 0; written < fullSectors; ++step) {
                noteStep(RecoveryPhase::Dump, step, totalSteps);
                const u64 n = std::min(kDumpChunkSectors,
                                       fullSectors - written);
                const os::IoOutcome put = track(
                    report.recovery, n,
                    os::retryWrite(
                        swap, written, n,
                        image.subspan(written * sim::kSectorSize,
                                      n * sim::kSectorSize),
                        clock, io_));
                if (!put.ok()) {
                    failed = true;
                    break;
                }
                written += n;
            }
            if (!failed && tailBytes != 0) {
                noteStep(RecoveryPhase::Dump, step, totalSteps);
                std::vector<u8> pad(sim::kSectorSize, 0);
                std::copy(image.end() - tailBytes, image.end(),
                          pad.begin());
                const os::IoOutcome put =
                    track(report.recovery, 1,
                          os::retryWrite(swap, fullSectors, 1, pad,
                                         clock, io_));
                failed = !put.ok();
            }
            if (failed) {
                // The swap device refused part of the dump for good:
                // same consequence as not fitting — no trustworthy
                // image to replay data from.
                report.recovery.dumpOk = false;
            } else if (ckptRoom) {
                ckpt_.flags = kFlagDumpComplete;
                ckpt_.dumpSectors = dumpSectors;
                ckpt_.dumpBytes = image.size();
                ckpt_.dumpChecksum = support::checksum32(image);
                writeCheckpoint(report.recovery);
                ckptActive_ = true;
            }
            noteStep(RecoveryPhase::Dump, totalSteps, totalSteps);
        }
    }
    RecoveryImage dump(
        resumed ? std::span<const u8>(fromSwap).first(image.size())
                : image,
        mem);

    // --- Graft the NV registry mirror (rio-nv). -------------------
    // Battery-backed DRAM survives what killed the kernel; merge its
    // copy of the registry into the dump before the scan so slots the
    // crash (or the corruptor) destroyed come back from the mirror.
    // Under the hardened policy this is a per-slot verified merge;
    // trusting takes the mirror wholesale (core/nvmirror.hh).
    const NvMirrorGraft graft = graftNvMirror(
        machine_, dump, policy_.quarantineBadChecksums, &clock);
    report.nvMirrorPresent = graft.present;
    report.nvMirrorCorrupt = graft.corrupt;
    report.nvEntriesGrafted = graft.entriesGrafted;

    // --- Scan the registry out of the dump. -----------------------
    image_ = parseRegistry(dump, mem);
    report.entriesSeen = image_.entries.size();
    report.corruptEntries = image_.corruptEntries;

    // A contested disk block — claimed by more than one dirty
    // metadata entry — can only come from corruption; at most one
    // claimant is right and the registry no longer says which.
    std::unordered_map<u64, u32> claims;
    auto restorable = [](const RegistryEntry &entry) {
        return entry.kind == L::kKindMetadata && entry.dirty;
    };
    std::vector<const RegistryEntry *> metaEntries;
    for (const RegistryEntry &entry : image_.entries) {
        if (restorable(entry)) {
            ++claims[entry.diskBlock];
            metaEntries.push_back(&entry);
        }
    }

    // --- Restore dirty metadata to its disk address. ---------------
    // On a fresh pass this reads the surviving image in memory, so
    // it proceeds even when the swap dump failed. On a
    // resumed pass the registry scan above ran against the swap copy
    // of the *first* crash's image — the decisions it feeds are the
    // same ones the dead pass made, so skipping the first
    // metadataProcessed entries resumes exactly where it stopped.
    auto &disk = machine_.disk();
    const u64 diskBlocks = disk.numSectors() / sim::kSectorsPerBlock;
    const u64 totalMeta = metaEntries.size();
    const bool metaDone =
        resumed && (ckpt_.flags & kFlagMetadataComplete) != 0;
    u64 firstMeta = 0;
    if (metaDone) {
        report.recovery.metadataSkippedResume = totalMeta;
    } else if (resumed) {
        firstMeta = std::min(ckpt_.metadataProcessed, totalMeta);
        report.recovery.metadataSkippedResume = firstMeta;
    }
    for (u64 k = metaDone ? totalMeta : firstMeta; k < totalMeta;
         ++k) {
        noteStep(RecoveryPhase::MetadataRestore, k, totalMeta);
        const RegistryEntry &entry = *metaEntries[k];
        // Processed-entry accounting: every branch below (including
        // the rejecting ones) advances the checkpoint — the decision
        // is deterministic, so a resumed pass would reach the same
        // verdict anyway.
        const auto advance = [&] {
            ckpt_.metadataProcessed = k + 1;
            if (ckptActive_)
                writeCheckpoint(report.recovery);
        };
        if (entry.diskBlock >= diskBlocks) {
            // Unrestorable: block address is insane.
            ++report.metadataUnrestorable;
            advance();
            continue;
        }
        if (policy_.rejectDuplicateClaims &&
            claims[entry.diskBlock] > 1) {
            // Leave the contested block to the on-disk copy + fsck.
            ++report.recovery.duplicateClaims;
            advance();
            continue;
        }

        Addr source = entry.physAddr;
        const u64 n = std::min<u64>(entry.size, sim::kPageSize);
        if (entry.state == L::kStateChanging) {
            // The crash hit mid-update. The shadow normally holds
            // the last consistent contents — but endWrite clears the
            // shadow pointer (and refreshes the checksum) *before*
            // the commit flip, so a crash inside that window leaves
            // a Changing entry whose only good copy is the page
            // itself. Under the hardened policy, try the shadow
            // first and fall back to the page, accepting whichever
            // candidate matches the entry checksum; the crash-point
            // enumerator (harness/crashmc) checks that at every
            // instant of the protocol at least one candidate does.
            if (!policy_.verifyShadowChecksums) {
                // Trusting: pre-hardening behaviour, shadow or bust,
                // restored unverified.
                if (entry.shadowAddr == 0) {
                    ++report.metadataUnrestorable;
                    advance();
                    continue;
                }
                if (entry.shadowAddr + sim::kPageSize > dump.size()) {
                    ++report.recovery.boundsViolations;
                    ++report.metadataUnrestorable;
                    advance();
                    continue;
                }
                source = entry.shadowAddr;
                ++report.metadataFromShadow;
            } else {
                const auto inDump = [&](Addr addr) {
                    return addr + sim::kPageSize <= dump.size();
                };
                // The entry checksum covers the last consistent
                // contents — what the shadow holds mid-update, and
                // what the page holds once endWrite has refreshed
                // the checksum field — bound to the disk block the
                // entry claims (registry.hh), so a redirected
                // diskBlock fails here like corrupted content.
                const auto matches = [&](Addr addr) {
                    return bindChecksum(
                               support::checksum32(dump.bytes(addr, n)),
                               entry.diskBlock) == entry.checksum;
                };
                const bool haveShadow = entry.shadowAddr != 0;
                const bool shadowUsable =
                    haveShadow && inDump(entry.shadowAddr);
                if (haveShadow && !shadowUsable)
                    ++report.recovery.boundsViolations;
                if (entry.checksum == 0) {
                    // Nothing to verify against: the shadow (written
                    // by a healthy kernel) is the best candidate
                    // there is; without one the entry is a loss.
                    if (!shadowUsable) {
                        ++report.metadataUnrestorable;
                        advance();
                        continue;
                    }
                    source = entry.shadowAddr;
                    ++report.metadataFromShadow;
                } else if (shadowUsable &&
                           matches(entry.shadowAddr)) {
                    source = entry.shadowAddr;
                    ++report.metadataFromShadow;
                } else if (inDump(entry.physAddr) &&
                           matches(entry.physAddr)) {
                    // Commit-window crash: the shadow is gone or
                    // stale but the page carries the committed
                    // contents, verified.
                    if (shadowUsable)
                        ++report.recovery.shadowChecksumBad;
                    source = entry.physAddr;
                    ++report.metadataFromPhysFallback;
                } else if (const Addr nvSrc =
                               stageNvShadow(graft, dump, entry, n);
                           nvSrc != 0) {
                    // Both in-memory candidates are gone, but the
                    // battery-backed tier still holds the shadow,
                    // verified like any other candidate.
                    if (shadowUsable)
                        ++report.recovery.shadowChecksumBad;
                    source = nvSrc;
                    ++report.nvShadowsUsed;
                } else {
                    // No candidate survives verification: leave the
                    // stale on-disk copy to fsck.
                    if (shadowUsable)
                        ++report.recovery.shadowChecksumBad;
                    ++report.recovery.metadataQuarantined;
                    advance();
                    continue;
                }
            }
        } else {
            if (source + sim::kPageSize > dump.size()) {
                ++report.recovery.boundsViolations;
                ++report.metadataUnrestorable;
                advance();
                continue;
            }
            if (entry.checksum != 0) {
                const u32 actual = bindChecksum(
                    support::checksum32(dump.bytes(source, n)),
                    entry.diskBlock);
                if (actual != entry.checksum) {
                    ++report.metadataChecksumBad;
                    if (policy_.quarantineBadChecksums) {
                        // Never restore known-bad metadata: the disk
                        // still holds a consistent (if stale) copy.
                        ++report.recovery.metadataQuarantined;
                        advance();
                        continue;
                    }
                }
            }
        }
        const os::IoOutcome put = track(
            report.recovery, sim::kSectorsPerBlock,
            os::retryWrite(
                disk,
                static_cast<SectorNo>(entry.diskBlock) *
                    sim::kSectorsPerBlock,
                sim::kSectorsPerBlock, dump.bytes(source, sim::kPageSize),
                clock, io_));
        if (!put.ok()) {
            // The block never reached the platter; the stale on-disk
            // copy plus fsck is all the next boot gets.
            ++report.metadataUnrestorable;
        } else {
            ++report.metadataRestored;
        }
        advance();
    }
    if (!metaDone) {
        ckpt_.flags |= kFlagMetadataComplete;
        ckpt_.metadataProcessed = totalMeta;
        if (ckptActive_)
            writeCheckpoint(report.recovery);
    }
    noteStep(RecoveryPhase::MetadataRestore, totalMeta, totalMeta);
    assert(support::checksum32(image) == imageSumBefore);
    return report;
}

void
WarmReboot::restoreData(os::Vfs &vfs, WarmRebootReport &report)
{
    if (!report.recovery.dumpOk) {
        // Step 2 reads pages off the swap-partition dump; without a
        // complete dump there is nothing trustworthy to replay.
        report.recovery.dataRestoreSkipped = true;
        return;
    }

    auto &swap = machine_.swap();
    auto &clock = machine_.clock();

    // Sort by (inode, offset) so files are rebuilt front to back —
    // and so the order is deterministic, which the resume skip
    // depends on.
    std::vector<const RegistryEntry *> dataEntries;
    for (const RegistryEntry &entry : image_.entries) {
        if (entry.kind == L::kKindData && entry.dirty &&
            entry.size > 0) {
            dataEntries.push_back(&entry);
        }
    }
    std::sort(dataEntries.begin(), dataEntries.end(),
              [](const RegistryEntry *a, const RegistryEntry *b) {
                  if (a->ino != b->ino)
                      return a->ino < b->ino;
                  return a->offset < b->offset;
              });

    const u64 total = dataEntries.size();
    u64 first = 0;
    if (report.recovery.resumed) {
        first = std::min(ckpt_.dataProcessed, total);
        report.recovery.dataSkippedResume = first;
    }
    std::vector<u8> page(sim::kPageSize, 0);
    for (u64 i = first; i < total; ++i) {
        noteStep(RecoveryPhase::DataRestore, i, total);
        const RegistryEntry *entry = dataEntries[i];
        // The checkpoint advances (and the rebuilt file is pushed to
        // the platter) at file boundaries, so a crash mid-file redoes
        // only that file and a checkpoint never claims pages that
        // were still sitting in the rebooted kernel's cache.
        const bool fileBoundary =
            i + 1 == total || dataEntries[i + 1]->ino != entry->ino;
        const auto advance = [&] {
            if (!fileBoundary)
                return;
            if (ckptActive_) {
                vfs.restoreFsyncByIno(entry->ino);
                ckpt_.dataProcessed = i + 1;
                writeCheckpoint(report.recovery);
            }
        };
        if (entry->physAddr + sim::kPageSize > report.dumpBytes) {
            ++report.recovery.boundsViolations;
            advance();
            continue;
        }
        // The user-level process reads the page out of the dump on
        // the swap partition...
        const os::IoOutcome got = track(
            report.recovery, sim::kPageSize / sim::kSectorSize,
            os::retryRead(swap, entry->physAddr / sim::kSectorSize,
                          sim::kPageSize / sim::kSectorSize, page,
                          clock, io_));
        if (!got.ok()) {
            // The dump page decayed on swap; nothing to replay.
            ++report.recovery.dataUnreadable;
            advance();
            continue;
        }
        if (entry->state == L::kStateChanging) {
            ++report.dataChanging;
        } else if (entry->checksum != 0) {
            const u64 n = std::min<u64>(entry->size, sim::kPageSize);
            const u32 actual = bindChecksum(
                support::checksum32(
                    std::span<const u8>(page.data(), n)),
                entry->diskBlock);
            if (actual != entry->checksum) {
                ++report.dataChecksumBad;
                if (policy_.quarantineBadData) {
                    ++report.recovery.dataQuarantined;
                    advance();
                    continue;
                }
            }
        }
        // ...and writes it back through ordinary system calls.
        auto written = vfs.restoreDataByIno(
            entry->ino, entry->offset,
            std::span<const u8>(page.data(), entry->size));
        if (!written.ok()) {
            ++report.staleInodes;
            advance();
            continue;
        }
        ++report.dataPagesRestored;
        report.dataBytesRestored += entry->size;
        advance();
    }
    noteStep(RecoveryPhase::DataRestore, total, total);
    if (ckptActive_) {
        // Retire the checkpoint: the next crash gets a fresh pass.
        ckpt_.flags |= kFlagAllDone;
        ckpt_.dataProcessed = total;
        writeCheckpoint(report.recovery);
    }
    noteStep(RecoveryPhase::Done, 0, 1);
}

} // namespace rio::core
