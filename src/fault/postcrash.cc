#include "fault/postcrash.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/nvmirror.hh"
#include "core/registry.hh"
#include "os/journal.hh"
#include "os/ufs.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"

namespace rio::fault
{

namespace
{

using L = core::RegistryLayout;

template <typename T>
T
getField(const u8 *slot, u64 off)
{
    T value;
    // riolint:allow(R1) reads a registry slot in the damaged image.
    std::memcpy(&value, slot + off, sizeof(T));
    return value;
}

template <typename T>
void
putField(u8 *slot, u64 off, T value)
{
    // riolint:allow(R1) writes corruption into the damaged image.
    std::memcpy(slot + off, &value, sizeof(T));
}

} // namespace

PostCrashStats &
PostCrashStats::operator+=(const PostCrashStats &other)
{
    ops += other.ops;
    registryBitsFlipped += other.registryBitsFlipped;
    magicsSmashed += other.magicsSmashed;
    claimsCrossLinked += other.claimsCrossLinked;
    pagesCrossLinked += other.pagesCrossLinked;
    pageBytesSmashed += other.pageBytesSmashed;
    shadowsSmashed += other.shadowsSmashed;
    tailBytesZeroed += other.tailBytesZeroed;
    nvBitsFlipped += other.nvBitsFlipped;
    nvLinesTorn += other.nvLinesTorn;
    nvMirrorsSmashed += other.nvMirrorsSmashed;
    jrnCommitsTorn += other.jrnCommitsTorn;
    jrnStaleSeqs += other.jrnStaleSeqs;
    jrnDescriptorsSmashed += other.jrnDescriptorsSmashed;
    return *this;
}

PostCrashCorruptor::PostCrashCorruptor(sim::Machine &machine,
                                       support::Rng rng,
                                       PostCrashConfig config)
    : machine_(machine), rng_(rng), config_(config)
{}

PostCrashStats
PostCrashCorruptor::corrupt()
{
    PostCrashStats stats;
    if (config_.intensity <= 0.0)
        return stats;
    if (machine_.config().memorySurvivesReset)
        corruptMemory(stats);
    corruptJournal(stats);
    return stats;
}

void
PostCrashCorruptor::corruptMemory(PostCrashStats &stats)
{
    auto &mem = machine_.mem();
    // riolint:allow(R1) the post-crash corruptor damages the surviving
    // image before recovery looks at it; it deliberately bypasses the
    // checked bus (the machine is down).
    u8 *raw = mem.raw();
    const auto &reg = mem.region(sim::RegionKind::Registry);
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    const u64 slotCount = buf.pages() + ubc.pages();

    auto slotAt = [&](u64 i) {
        return raw + reg.base + i * L::kEntrySize;
    };

    // Index the live slots, plus the subsets the targeted mutations
    // need: dirty metadata (what the warm reboot will push to disk)
    // and mid-update entries (whose shadow copy will be used).
    std::vector<u64> live;
    std::vector<u64> dirtyMeta;
    std::vector<u64> changing;
    for (u64 i = 0; i < slotCount; ++i) {
        const Addr base = reg.base + i * L::kEntrySize;
        if (base + L::kEntrySize > mem.size())
            break;
        const u8 *slot = raw + base;
        if (getField<u32>(slot, L::kOffMagic) != L::kMagic)
            continue;
        live.push_back(i);
        if (getField<u32>(slot, L::kOffKind) == L::kKindMetadata &&
            getField<u32>(slot, L::kOffDirty) != 0) {
            dirtyMeta.push_back(i);
        }
        if (getField<u32>(slot, L::kOffState) == L::kStateChanging &&
            getField<u64>(slot, L::kOffShadow) != 0) {
            changing.push_back(i);
        }
    }

    auto rounds = [&](double base) {
        return static_cast<u64>(
            std::llround(config_.intensity * base));
    };
    // Pick two distinct indices out of a pool of >= 2.
    auto pickPair = [&](const std::vector<u64> &pool, u64 &a, u64 &b) {
        const u64 ia = rng_.below(pool.size());
        const u64 ib = (ia + 1 + rng_.below(pool.size() - 1)) %
                       pool.size();
        a = pool[ia];
        b = pool[ib];
    };

    if (config_.flipRegistryBits && !live.empty()) {
        for (u64 k = rounds(4.0); k > 0; --k) {
            u8 *slot = slotAt(live[rng_.below(live.size())]);
            slot[rng_.below(L::kEntrySize)] ^=
                static_cast<u8>(1u << rng_.below(8));
            ++stats.registryBitsFlipped;
            ++stats.ops;
        }
    }

    if (config_.smashMagics && !live.empty()) {
        for (u64 k = rounds(1.0); k > 0; --k) {
            u8 *slot = slotAt(live[rng_.below(live.size())]);
            u32 garbage = static_cast<u32>(rng_.next());
            if (garbage == L::kMagic || garbage == 0)
                garbage ^= 0x5a5a5a5au;
            putField(slot, L::kOffMagic, garbage);
            ++stats.magicsSmashed;
            ++stats.ops;
        }
    }

    if (config_.crossLinkClaims && dirtyMeta.size() >= 2) {
        for (u64 k = rounds(1.0); k > 0; --k) {
            u64 a = 0;
            u64 b = 0;
            pickPair(dirtyMeta, a, b);
            putField(slotAt(b), L::kOffDiskBlock,
                     getField<u32>(slotAt(a), L::kOffDiskBlock));
            ++stats.claimsCrossLinked;
            ++stats.ops;
        }
    }

    if (config_.crossLinkPages && dirtyMeta.size() >= 2) {
        for (u64 k = rounds(1.0); k > 0; --k) {
            u64 a = 0;
            u64 b = 0;
            pickPair(dirtyMeta, a, b);
            // b now points at a's page: still a valid, aligned pool
            // address, so only the checksum can tell it is wrong.
            putField(slotAt(b), L::kOffPhysAddr,
                     getField<u64>(slotAt(a), L::kOffPhysAddr));
            ++stats.pagesCrossLinked;
            ++stats.ops;
        }
    }

    if (config_.smashPageBytes && !dirtyMeta.empty()) {
        for (u64 k = rounds(2.0); k > 0; --k) {
            const u8 *slot =
                slotAt(dirtyMeta[rng_.below(dirtyMeta.size())]);
            const Addr pa = getField<u64>(slot, L::kOffPhysAddr);
            if ((buf.contains(pa) || ubc.contains(pa)) &&
                pa + sim::kPageSize <= mem.size()) {
                // The whole page is gone — the model is "this memory
                // was scribbled over during the outage", not a
                // correctable single-bit error.
                rng_.fill(
                    std::span<u8>(raw + pa, sim::kPageSize));
                stats.pageBytesSmashed += sim::kPageSize;
                ++stats.ops;
            }
        }
    }

    if (config_.smashShadows && !changing.empty()) {
        for (u64 k = rounds(1.0); k > 0; --k) {
            const u8 *slot =
                slotAt(changing[rng_.below(changing.size())]);
            const Addr sh = getField<u64>(slot, L::kOffShadow);
            constexpr u64 kSmashBytes = 64;
            if (reg.contains(sh) && sh + kSmashBytes <= mem.size()) {
                rng_.fill(std::span<u8>(raw + sh, kSmashBytes));
                ++stats.shadowsSmashed;
                ++stats.ops;
            }
        }
    }

    if (config_.zeroTail &&
        rng_.chance(std::min(1.0, 0.25 * config_.intensity))) {
        const u64 pages = rng_.between(1, 4);
        const u64 bytes =
            std::min<u64>(pages * sim::kPageSize, mem.size());
        // riolint:allow(R1) tail-of-memory zeroing damage model.
        std::memset(raw + mem.size() - bytes, 0, bytes);
        stats.tailBytesZeroed += bytes;
        ++stats.ops;
    }

    // --- rio-nv damage: the battery-backed tier is not immune — the
    // outage can decay its cells, tear its in-flight lines, and (the
    // worst case) destroy the mirror header so the graft must reject
    // the whole mirror. Drawn strictly after the DRAM classes so a
    // machine without an NV region replays the exact same damage.
    sim::NvRegion *nv = machine_.nv();
    if (nv != nullptr && nv->size() > 0) {
        // riolint:allow(R1) damages the NV store behind the timed
        // controller; the machine is down.
        u8 *nvRaw = nv->raw();
        const u64 nvSize = nv->size();

        if (config_.nvBitDecay) {
            for (u64 k = rounds(2.0); k > 0; --k) {
                nvRaw[rng_.below(nvSize)] ^=
                    static_cast<u8>(1u << rng_.below(8));
                ++stats.nvBitsFlipped;
                ++stats.ops;
            }
        }

        if (config_.nvTornLines) {
            for (u64 k = rounds(1.0); k > 0; --k) {
                const u64 line = rng_.below(nv->numLines());
                rng_.fill(nv->hostLine(line));
                ++stats.nvLinesTorn;
                ++stats.ops;
            }
        }

        if (config_.nvSmashMirror &&
            rng_.chance(std::min(1.0, 0.25 * config_.intensity))) {
            const u64 bytes =
                std::min<u64>(core::NvMirrorLayout::kHeaderBytes,
                              nvSize);
            rng_.fill(std::span<u8>(nvRaw, bytes));
            ++stats.nvMirrorsSmashed;
            ++stats.ops;
        }
    }
}

void
PostCrashCorruptor::corruptJournal(PostCrashStats &stats)
{
    // Host-side attack on the on-disk log area: models the torn and
    // reordered writes a real (non-FIFO) disk can leave behind,
    // which the simulated queue alone cannot produce. Everything is
    // gated on actually finding a journal with committed
    // transactions, so no Rng draws happen on UFS / Rio images.
    using J = os::Journal;
    auto rounds = [&](double base) {
        return static_cast<u64>(
            std::llround(config_.intensity * base));
    };
    sim::Disk &disk = machine_.disk();
    const u64 blockSectors = sim::kSectorsPerBlock;
    const u64 totalBlocks = disk.numSectors() / blockSectors;
    if (totalBlocks == 0)
        return;

    std::vector<u8> block(os::Ufs::kBlockSize, 0);
    auto readBlock = [&](u64 blockNo) {
        for (u64 s = 0; s < blockSectors; ++s) {
            const auto sector =
                disk.peekSector(blockNo * blockSectors + s);
            std::copy(sector.begin(), sector.end(),
                      block.begin() +
                          static_cast<size_t>(s * sim::kSectorSize));
        }
    };

    readBlock(0);
    if (support::loadLE<u32>(block, os::Ufs::kSbMagic) !=
        os::Ufs::kSuperMagic)
        return;
    const u32 logStart =
        support::loadLE<u32>(block, os::Ufs::kSbLogStart);
    const u32 logBlocks =
        support::loadLE<u32>(block, os::Ufs::kSbLogBlocks);
    if (logBlocks < 2 ||
        static_cast<u64>(logStart) + logBlocks > totalBlocks)
        return;

    readBlock(logStart);
    if (support::loadLE<u32>(block, 0) != J::kJsbMagic)
        return;
    if (support::checksum32(std::span<const u8>(block).first(
            J::kJsbChecksum)) !=
        support::loadLE<u32>(block, J::kJsbChecksum))
        return;
    const u64 headSeq = support::loadLE<u64>(block, J::kJsbHeadSeq);
    const u32 headSlot = support::loadLE<u32>(block, J::kJsbHeadSlot);
    const u32 dataSlots =
        support::loadLE<u32>(block, J::kJsbDataSlots);
    if (dataSlots != logBlocks - 1 || headSlot >= dataSlots ||
        headSeq == 0)
        return;

    // Walk the committed chain the way replay does (host-side, no
    // simulated time), collecting the transactions we can attack.
    struct TxRef
    {
        u32 slot = 0; ///< Descriptor slot.
        u32 count = 0;
        u64 seq = 0;
    };
    std::vector<TxRef> txs;
    u32 slot = headSlot;
    u64 expect = headSeq;
    u32 walked = 0;
    const u32 maxEntries = static_cast<u32>(
        (os::Ufs::kBlockSize - J::kDescEntries) / 8);
    while (walked + 2 <= dataSlots) {
        readBlock(static_cast<u64>(logStart) + 1 + slot);
        if (support::loadLE<u32>(block, 0) != J::kDescMagic ||
            support::loadLE<u64>(block, J::kDescSeq) != expect)
            break;
        const u32 count = support::loadLE<u32>(block, J::kDescCount);
        if (count == 0 || count > maxEntries ||
            walked + count + 2 > dataSlots)
            break;
        readBlock(static_cast<u64>(logStart) + 1 +
                  (slot + 1 + count) % dataSlots);
        if (support::loadLE<u32>(block, 0) != J::kCommitMagic ||
            support::loadLE<u64>(block, J::kCmtSeq) != expect)
            break;
        txs.push_back({slot, count, expect});
        slot = (slot + count + 2) % dataSlots;
        ++expect;
        walked += count + 2;
    }
    if (txs.empty())
        return;

    const auto slotSector = [&](u32 s, u64 sectorInBlock) {
        // riolint:allow(R1) fault injection scribbles the log area
        // through the host window, like diskfault's media decay.
        return disk.hostSector(
            (static_cast<u64>(logStart) + 1 + s) * blockSectors +
            sectorInBlock);
    };

    if (config_.jrnTearCommit) {
        // The torn-commit window: the payload is garbage but the
        // commit record survives intact. A real disk gets here by
        // reordering the commit ahead of the data; only the commit
        // checksum can catch it at replay.
        for (u64 k = rounds(1.0); k > 0; --k) {
            const TxRef &tx = txs[rng_.below(txs.size())];
            const u32 victim =
                (tx.slot + 1 +
                 static_cast<u32>(rng_.below(tx.count))) %
                dataSlots;
            const auto sector =
                slotSector(victim, rng_.below(blockSectors));
            constexpr u64 kTearBytes = 64;
            const u64 off =
                rng_.below(sim::kSectorSize - kTearBytes + 1);
            rng_.fill(sector.subspan(off, kTearBytes));
            ++stats.jrnCommitsTorn;
            ++stats.ops;
        }
    }

    if (config_.jrnStaleSeq) {
        // A wrapped-log echo: the descriptor claims a sequence
        // number from another generation of the circular log. The
        // exact-sequence check at replay must refuse to cross it.
        for (u64 k = rounds(1.0); k > 0; --k) {
            const TxRef &tx = txs[rng_.below(txs.size())];
            const auto sector = slotSector(tx.slot, 0);
            support::storeLE<u64>(sector, J::kDescSeq,
                                  tx.seq + dataSlots);
            ++stats.jrnStaleSeqs;
            ++stats.ops;
        }
    }

    if (config_.jrnSmashDescriptor) {
        for (u64 k = rounds(1.0); k > 0; --k) {
            const TxRef &tx = txs[rng_.below(txs.size())];
            const auto sector = slotSector(tx.slot, 0);
            constexpr u64 kSmashBytes = 64;
            rng_.fill(sector.first(kSmashBytes));
            ++stats.jrnDescriptorsSmashed;
            ++stats.ops;
        }
    }
}

} // namespace rio::fault
