/**
 * @file
 * Tests for the compound-transaction journal under its ext3 data
 * modes: compound transactions and group commit, the three data
 * modes surviving crash + replay, checksummed commit records
 * rejecting torn commits (and the checksum-off arm provably applying
 * garbage), replay idempotence and re-entrancy (crash during replay /
 * checkpoint, double crash), and the postcrash journal damage
 * classes, which leave unjournaled volumes untouched.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "fault/postcrash.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

/** Host-side copy of one fs block off the platter. */
std::vector<u8>
readBlock(sim::Disk &disk, u64 blockNo)
{
    std::vector<u8> out(os::Ufs::kBlockSize);
    for (u64 s = 0; s < sim::kSectorsPerBlock; ++s) {
        const auto sector =
            disk.peekSector(blockNo * sim::kSectorsPerBlock + s);
        std::memcpy(out.data() + s * sim::kSectorSize, sector.data(),
                    sim::kSectorSize);
    }
    return out;
}

/** One committed transaction found by a host-side log walk. */
struct TxRef
{
    u32 slot = 0;
    u32 count = 0;
    u64 seq = 0;
    std::vector<u32> homes;
};

/** Walk the committed chain the way replay does (host side). */
std::vector<TxRef>
walkLog(sim::Disk &disk, u32 logStart, u32 logBlocks)
{
    using J = os::Journal;
    std::vector<TxRef> txs;
    const auto jsb = readBlock(disk, logStart);
    if (support::loadLE<u32>(jsb, 0) != J::kJsbMagic)
        return txs;
    u64 expect = support::loadLE<u64>(jsb, J::kJsbHeadSeq);
    u32 slot = support::loadLE<u32>(jsb, J::kJsbHeadSlot);
    const u32 dataSlots =
        support::loadLE<u32>(jsb, J::kJsbDataSlots);
    if (dataSlots != logBlocks - 1)
        return txs;
    u32 walked = 0;
    while (walked + 2 <= dataSlots) {
        const auto desc =
            readBlock(disk, static_cast<u64>(logStart) + 1 + slot);
        if (support::loadLE<u32>(desc, 0) != J::kDescMagic ||
            support::loadLE<u64>(desc, J::kDescSeq) != expect)
            break;
        const u32 count = support::loadLE<u32>(desc, J::kDescCount);
        if (count == 0 || walked + count + 2 > dataSlots)
            break;
        const auto cmt = readBlock(
            disk, static_cast<u64>(logStart) + 1 +
                      (slot + 1 + count) % dataSlots);
        if (support::loadLE<u32>(cmt, 0) != J::kCommitMagic ||
            support::loadLE<u64>(cmt, J::kCmtSeq) != expect)
            break;
        TxRef tx{slot, count, expect, {}};
        for (u32 e = 0; e < count; ++e) {
            tx.homes.push_back(support::loadLE<u32>(
                desc, J::kDescEntries + 8ull * e));
        }
        txs.push_back(std::move(tx));
        slot = (slot + count + 2) % dataSlots;
        ++expect;
        walked += count + 2;
    }
    return txs;
}

/** Boot an ext3 kernel, write and sync a small file set, crash.
 *  Committed transactions are on the platter; their home copies are
 *  not (no checkpoint ran). Deterministic in the config. */
std::unique_ptr<sim::Machine>
makeCrashedImage(os::KernelConfig config, int files = 8)
{
    auto machine = std::make_unique<sim::Machine>(test::smallMachine());
    auto kernel = std::make_unique<os::Kernel>(*machine, config);
    kernel->boot(nullptr, true);
    os::Process proc(1);
    auto &vfs = kernel->vfs();
    wl::tolerate(vfs.mkdir("/d"));
    for (int i = 0; i < files; ++i) {
        auto fd = vfs.open(proc, "/d/f" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        std::vector<u8> data(5000, static_cast<u8>(0x30 + i));
        wl::tolerate(vfs.write(proc, fd.value(), data));
        wl::tolerate(vfs.close(proc, fd.value()));
    }
    vfs.sync(); // Commits the compound transaction (no checkpoint).
    kernel->fsDisk().drain(machine->clock());
    try {
        machine->crash(sim::CrashCause::KernelPanic, "ext3 test");
    } catch (const sim::CrashException &) {
    }
    kernel.reset();
    machine->reset(sim::ResetKind::Warm);
    return machine;
}

int
countFiles(os::Kernel &kernel, int files)
{
    int present = 0;
    for (int i = 0; i < files; ++i) {
        if (kernel.ufs().namei("/d/f" + std::to_string(i)).ok())
            ++present;
    }
    return present;
}

} // namespace

TEST(JournalExt3, CompoundTransactionBatchesManySyscalls)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(
        machine,
        os::systemPreset(os::SystemPreset::JournalWriteback));
    kernel.boot(nullptr, true);
    os::Process proc(1);
    auto &vfs = kernel.vfs();
    const u64 before = kernel.journal().transactionsCommitted();
    // 10 creates + writes + closes touch the same inode, bitmap and
    // directory blocks over and over; absorption folds them into one
    // open compound transaction.
    for (int i = 0; i < 10; ++i) {
        auto fd = vfs.open(proc, "/c" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        std::vector<u8> data(200, 7);
        wl::tolerate(vfs.write(proc, fd.value(), data));
        wl::tolerate(vfs.close(proc, fd.value()));
    }
    EXPECT_TRUE(kernel.journal().txOpen());
    EXPECT_GT(kernel.journal().openTxBlocks(), 0u);
    EXPECT_EQ(kernel.journal().transactionsCommitted(), before);

    vfs.sync();
    EXPECT_FALSE(kernel.journal().txOpen());
    EXPECT_EQ(kernel.journal().transactionsCommitted(), before + 1);
    // Far fewer block images than the ~30 syscalls' metadata updates.
    EXPECT_LT(kernel.journal().recordsWritten(), 15u);
}

TEST(JournalExt3, GroupCommitTimerSealsAgedTransaction)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(
        machine,
        os::systemPreset(os::SystemPreset::JournalWriteback));
    kernel.boot(nullptr, true);
    os::Process proc(1);
    auto &vfs = kernel.vfs();
    auto fd = vfs.open(proc, "/t", os::OpenFlags::writeOnly());
    std::vector<u8> data(100, 9);
    wl::tolerate(vfs.write(proc, fd.value(), data));
    wl::tolerate(vfs.close(proc, fd.value()));
    ASSERT_TRUE(kernel.journal().txOpen());

    // Younger than the 5 s commit interval: still open.
    machine.clock().advance(1ull * sim::kNsPerSec);
    wl::tolerate(vfs.stat("/t")); // Any syscall runs the timer.
    EXPECT_TRUE(kernel.journal().txOpen());

    machine.clock().advance(6ull * sim::kNsPerSec);
    wl::tolerate(vfs.stat("/t"));
    EXPECT_FALSE(kernel.journal().txOpen());
    EXPECT_GT(kernel.journal().transactionsCommitted(), 0u);
}

TEST(JournalExt3, AllThreeModesSurviveCrashAndReplay)
{
    const os::SystemPreset presets[] = {
        os::SystemPreset::JournalWriteback,
        os::SystemPreset::JournalOrdered,
        os::SystemPreset::JournalData,
    };
    for (const os::SystemPreset preset : presets) {
        const os::KernelConfig config = os::systemPreset(preset);
        auto machine = makeCrashedImage(config);
        os::Kernel rebooted(*machine, config);
        rebooted.boot(nullptr, false);
        EXPECT_GT(rebooted.journalReplayed(), 0u)
            << os::systemPresetName(preset);
        EXPECT_EQ(countFiles(rebooted, 8), 8)
            << os::systemPresetName(preset);
    }
}

TEST(JournalExt3, DataJournalRestoresFileContentsFromTheLog)
{
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::JournalData);
    auto machine = makeCrashedImage(config, 4);
    os::Kernel rebooted(*machine, config);
    rebooted.boot(nullptr, false);
    os::Process proc(2);
    for (int i = 0; i < 4; ++i) {
        auto fd = rebooted.vfs().open(proc, "/d/f" + std::to_string(i),
                                      os::OpenFlags::readOnly());
        ASSERT_TRUE(fd.ok());
        std::vector<u8> out(5000);
        auto n = rebooted.vfs().read(proc, fd.value(), out);
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(n.value(), 5000u);
        // data=journal: the content rode the log; replay must have
        // written it home byte-exactly.
        EXPECT_EQ(out, std::vector<u8>(5000,
                                       static_cast<u8>(0x30 + i)));
        wl::tolerate(rebooted.vfs().close(proc, fd.value()));
    }
}

TEST(JournalExt3, ChecksumRejectsTornCommitButNoChecksumAppliesIt)
{
    // The same torn-commit scenario under both arms: scramble a
    // committed transaction's payload while its commit record
    // survives. The checksum arm must refuse to let the garbage
    // anywhere near a home block; the weakened arm provably applies
    // it — this pair is the direct proof behind the crashmc arms.
    for (const bool checksum : {true, false}) {
        os::KernelConfig config =
            os::systemPreset(os::SystemPreset::JournalOrdered);
        config.journal.checksumCommit = checksum;
        auto machine = makeCrashedImage(config);
        sim::Disk &disk = machine->disk();
        const auto geoBlock = readBlock(disk, 0);
        const u32 logStart =
            support::loadLE<u32>(geoBlock, os::Ufs::kSbLogStart);
        const u32 logBlocks =
            support::loadLE<u32>(geoBlock, os::Ufs::kSbLogBlocks);
        const auto txs = walkLog(disk, logStart, logBlocks);
        ASSERT_FALSE(txs.empty());

        // Scramble 64 bytes of the last tx's first payload block
        // with a recognizable pattern; earlier (intact) txs may
        // still replay, the torn one must not.
        const TxRef &tx = txs.back();
        const u32 dataSlots = logBlocks - 1;
        const u64 payloadBlock = static_cast<u64>(logStart) + 1 +
                                 (tx.slot + 1) % dataSlots;
        const u32 home = tx.homes.front();
        auto sector =
            disk.hostSector(payloadBlock * sim::kSectorsPerBlock);
        for (int i = 0; i < 64; ++i)
            sector[100 + i] = 0xA5; // riolint:allow(R1) test tears the log.

        sim::SimClock clock;
        os::JournalReplayStats stats;
        os::Journal::replay(disk, clock, {}, &stats);

        const auto homeBytes = readBlock(disk, home);
        bool sawPattern = false;
        for (u64 off = 0; off + 64 <= sim::kSectorSize; ++off) {
            if (homeBytes[off] == 0xA5 && homeBytes[off + 63] == 0xA5 &&
                std::memcmp(homeBytes.data() + off,
                            std::vector<u8>(64, 0xA5).data(),
                            64) == 0) {
                sawPattern = true;
                break;
            }
        }
        if (checksum) {
            EXPECT_GE(stats.rejectedChecksum, 1u);
            EXPECT_FALSE(sawPattern)
                << "checksummed replay leaked torn bytes home";
        } else {
            EXPECT_EQ(stats.rejectedChecksum, 0u);
            EXPECT_GT(stats.transactions, 0u);
            EXPECT_TRUE(sawPattern)
                << "weakened arm was expected to apply the garbage";
        }
    }
}

TEST(JournalExt3, ReplayIsIdempotent)
{
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::JournalOrdered);
    auto machine = makeCrashedImage(config);
    sim::Disk &disk = machine->disk();

    sim::SimClock clock;
    os::JournalReplayStats first;
    os::Journal::replay(disk, clock, {}, &first);
    EXPECT_GT(first.transactions, 0u);
    const u64 afterFirst = test::platterFingerprint(disk);

    os::JournalReplayStats second;
    os::Journal::replay(disk, clock, {}, &second);
    // The advanced head leaves nothing to re-apply, and the platter
    // is byte-identical: recovering twice is the same as once.
    EXPECT_EQ(second.transactions, 0u);
    EXPECT_EQ(test::platterFingerprint(disk), afterFirst);
}

namespace
{

/** Thrown out of a replay subscriber: a modeled crash. */
struct Abort
{
};

/** Throw Abort out of replay at the @p at-th phase event of
 *  @p machine's data disk; @p seen counts the phases delivered. */
sim::Machine::Subscription
abortReplayAt(sim::Machine &machine, u64 at, u64 &seen)
{
    return machine.subscribe(
        [at, &seen](const sim::Event &) {
            if (seen++ == at)
                throw Abort{};
        },
        sim::eventBit(sim::EventKind::ReplayScanDone) |
            sim::eventBit(sim::EventKind::ReplayApplyBlock) |
            sim::eventBit(sim::EventKind::ReplayApplyDone) |
            sim::eventBit(sim::EventKind::ReplayJsbAdvance));
}

/** Replay @p machine's data disk, crashing at phase event @p at. */
void
replayAbortingAt(sim::Machine &machine, sim::SimClock &clock, u64 at)
{
    u64 seen = 0;
    const auto abort = abortReplayAt(machine, at, seen);
    try {
        os::Journal::replay(machine.disk(), clock);
    } catch (const Abort &) {
        machine.disk().crashDropQueue(clock.now());
    }
}

} // namespace

TEST(JournalExt3, ReplayIsReentrantAtEveryPhaseBoundary)
{
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::JournalOrdered);

    // Reference: one uninterrupted recovery of the crashed image.
    u64 want = 0;
    u64 phases = 0;
    {
        auto machine = makeCrashedImage(config);
        const auto counter = abortReplayAt(*machine, ~0ull, phases);
        sim::SimClock clock;
        os::Journal::replay(machine->disk(), clock);
        want = test::platterFingerprint(machine->disk());
    }
    ASSERT_GT(phases, 2u);

    // Crash the replay at every phase boundary (losing whatever was
    // still queued), recover again, and require the byte-identical
    // end state — including a double crash at adjacent boundaries.
    for (u64 k = 0; k < phases; ++k) {
        auto machine = makeCrashedImage(config);
        sim::SimClock clock;
        replayAbortingAt(*machine, clock, k);
        if (k + 1 < phases) // Second crash, one boundary later.
            replayAbortingAt(*machine, clock, k);
        os::Journal::replay(machine->disk(), clock);
        EXPECT_EQ(test::platterFingerprint(machine->disk()), want)
            << "k=" << k;
    }
}

TEST(JournalExt3, CrashDuringCheckpointRecoversAtEveryStep)
{
    // Phase sweep over every checkpoint step (home-copy writes and
    // the head advance): fsynced files must survive a crash at any
    // of them, plus a second crash during the subsequent replay.
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::JournalWriteback);
    config.journal.checkpointEveryCommits = 1;
    constexpr int kFiles = 4;

    const auto run = [&](u64 crashAt, u64 *stepsSeen) -> bool {
        sim::Machine machine(test::smallMachine());
        auto kernel = std::make_unique<os::Kernel>(machine, config);
        kernel->boot(nullptr, true);
        os::Process proc(1);
        auto &vfs = kernel->vfs();
        int fsynced = 0;
        bool crashed = false;
        u64 steps = 0;
        {
            const auto crasher = machine.subscribe(
                [&](const sim::Event &) {
                    if (steps++ == crashAt) {
                        machine.crash(sim::CrashCause::KernelPanic,
                                      "ext3 test: crash mid-checkpoint");
                    }
                },
                sim::eventBit(sim::EventKind::JournalCheckpointWrite) |
                    sim::eventBit(
                        sim::EventKind::JournalCheckpointAdvance));
            try {
                wl::tolerate(vfs.mkdir("/d"));
                for (int i = 0; i < kFiles; ++i) {
                    auto fd = vfs.open(proc,
                                       "/d/f" + std::to_string(i),
                                       os::OpenFlags::writeOnly());
                    std::vector<u8> data(3000, static_cast<u8>(i));
                    wl::tolerate(vfs.write(proc, fd.value(), data));
                    wl::tolerate(vfs.fsync(proc, fd.value()));
                    wl::tolerate(vfs.close(proc, fd.value()));
                    ++fsynced;
                }
            } catch (const sim::CrashException &) {
                crashed = true;
            }
        }
        if (stepsSeen != nullptr)
            *stepsSeen = steps;
        if (!crashed)
            return false;
        kernel.reset();
        machine.reset(sim::ResetKind::Warm);

        // Double crash: interrupt the first recovery attempt.
        sim::SimClock clock;
        replayAbortingAt(machine, clock, 1);

        os::Kernel rebooted(machine, config);
        rebooted.boot(nullptr, false);
        EXPECT_EQ(countFiles(rebooted, fsynced), fsynced)
            << "crashAt=" << crashAt;
        return true;
    };

    u64 steps = 0;
    run(~0ull, &steps); // Dry run: count checkpoint steps.
    ASSERT_GT(steps, 2u);
    int swept = 0;
    for (u64 k = 0; k < steps; ++k) {
        if (run(k, nullptr))
            ++swept;
    }
    EXPECT_GT(swept, 0);
}

TEST(JournalExt3, PostcrashJournalDamageIsContainedByReplay)
{
    // Stale wrapped sequence numbers and smashed descriptors: the
    // corruptor plants them, replay must stop at the damage instead
    // of applying a transaction from another log generation, and the
    // volume still boots.
    for (const int kind : {0, 1}) {
        const os::KernelConfig config =
            os::systemPreset(os::SystemPreset::JournalOrdered);
        auto machine = makeCrashedImage(config);
        fault::PostCrashConfig damage;
        damage.flipRegistryBits = false;
        damage.smashMagics = false;
        damage.crossLinkClaims = false;
        damage.crossLinkPages = false;
        damage.smashPageBytes = false;
        damage.smashShadows = false;
        damage.zeroTail = false;
        damage.nvBitDecay = false;
        damage.nvTornLines = false;
        damage.nvSmashMirror = false;
        damage.jrnTearCommit = false;
        damage.jrnStaleSeq = kind == 0;
        damage.jrnSmashDescriptor = kind == 1;
        fault::PostCrashCorruptor corruptor(
            *machine, support::Rng(42), damage);
        const auto stats = corruptor.corrupt();
        if (kind == 0)
            EXPECT_GT(stats.jrnStaleSeqs, 0u);
        else
            EXPECT_GT(stats.jrnDescriptorsSmashed, 0u);

        os::Kernel rebooted(*machine, config);
        rebooted.boot(nullptr, false); // Must not trip kernel checks.
        EXPECT_TRUE(rebooted.ufs().mounted());
    }
}

TEST(JournalExt3, PostcrashJournalClassesAreSilentOnLegacyImages)
{
    // A plain UFS volume (the Table 1 systems) never writes a journal
    // superblock into its log area; the journal damage classes must
    // draw nothing from the Rng so every campaign trial stays
    // bit-reproducible.
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::UfsDefault);
    auto machine = makeCrashedImage(config);
    fault::PostCrashConfig damage;
    damage.flipRegistryBits = false;
    damage.smashMagics = false;
    damage.crossLinkClaims = false;
    damage.crossLinkPages = false;
    damage.smashPageBytes = false;
    damage.smashShadows = false;
    damage.zeroTail = false;
    damage.nvBitDecay = false;
    damage.nvTornLines = false;
    damage.nvSmashMirror = false;
    fault::PostCrashCorruptor corruptor(*machine, support::Rng(42),
                                        damage);
    const auto stats = corruptor.corrupt();
    EXPECT_EQ(stats.jrnCommitsTorn, 0u);
    EXPECT_EQ(stats.jrnStaleSeqs, 0u);
    EXPECT_EQ(stats.jrnDescriptorsSmashed, 0u);
    EXPECT_EQ(stats.ops, 0u);
}
