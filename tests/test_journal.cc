/**
 * @file
 * Tests for the AdvFS preset of the journal (metadata-only logging,
 * 16-block group commit): the on-disk log layout, write absorption,
 * and the end-to-end crash-recovery path. Torn commits, replay
 * re-entrancy and the data modes are covered in test_journal_ext3.cc.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

TEST(JournalTest, AppendsGoToLogAreaOnFlush)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::AdvFsJournal));
    kernel.boot(nullptr, true);
    os::Process proc(1);
    auto &vfs = kernel.vfs();
    for (int i = 0; i < 10; ++i) {
        auto fd = vfs.open(proc, "/j" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        std::vector<u8> data(100, 1);
        rio::wl::tolerate(vfs.write(proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(proc, fd.value()));
    }
    kernel.journal().commitTransaction();
    kernel.fsDisk().drain(machine.clock());
    EXPECT_GT(kernel.journal().recordsWritten(), 0u);

    // The log area opens with the journal superblock; on a fresh
    // volume the first transaction's descriptor fills the first slot.
    const auto &geo = kernel.ufs().geometry();
    const auto magicAt = [&](u32 block) {
        u32 magic;
        std::memcpy(&magic,
                    kernel.fsDisk()
                        .peekSector(static_cast<SectorNo>(block) *
                                    sim::kSectorsPerBlock)
                        .data(),
                    4);
        return magic;
    };
    EXPECT_EQ(magicAt(geo.logStart), os::Journal::kJsbMagic);
    EXPECT_EQ(magicAt(geo.logStart + 1), os::Journal::kDescMagic);
}

TEST(JournalTest, AbsorptionCoalescesSameBlock)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::AdvFsJournal));
    kernel.boot(nullptr, true);
    os::Process proc(1);
    auto &vfs = kernel.vfs();
    const u64 before = kernel.journal().recordsWritten();
    // Many writes to the same file touch the same inode block over
    // and over; absorption must keep the record count far below the
    // update count.
    auto fd = vfs.open(proc, "/same", os::OpenFlags::writeOnly());
    std::vector<u8> chunk(512, 2);
    for (int i = 0; i < 50; ++i)
        rio::wl::tolerate(vfs.write(proc, fd.value(), chunk));
    rio::wl::tolerate(vfs.close(proc, fd.value()));
    kernel.journal().commitTransaction();
    const u64 records = kernel.journal().recordsWritten() - before;
    EXPECT_GT(records, 0u);
    EXPECT_LT(records, 25u);
}

TEST(JournalTest, ReplayRestoresLoggedMetadataAfterCrash)
{
    sim::Machine machine(test::smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::AdvFsJournal));
    system.boot(true);
    os::Kernel &kernel = system.kernel();
    os::Process proc(1);
    auto &vfs = kernel.vfs();
    rio::wl::tolerate(vfs.mkdir("/dir"));
    for (int i = 0; i < 20; ++i) {
        auto fd = vfs.open(proc, "/dir/f" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        std::vector<u8> data(3000, static_cast<u8>(i));
        rio::wl::tolerate(vfs.write(proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(proc, fd.value()));
    }
    // Commit the journal and let the queued log writes land — but
    // the home copies wait for a checkpoint (that's the point).
    kernel.journal().commitTransaction();
    kernel.fsDisk().drain(machine.clock());
    // Data pages must be on disk for full recovery of contents.
    kernel.ubc().flushAll(true);

    system.crash("journal test");
    system.recover();
    os::Kernel &rebooted = system.kernel();
    EXPECT_GT(rebooted.journalReplayed(), 0u);

    // The files exist with their metadata, courtesy of the log.
    int present = 0;
    for (int i = 0; i < 20; ++i) {
        if (rebooted.ufs()
                .namei("/dir/f" + std::to_string(i))
                .ok()) {
            ++present;
        }
    }
    EXPECT_EQ(present, 20);
}

TEST(JournalTest, ReplayOnCleanDiskIsHarmless)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::UfsDefault));
    kernel.boot(nullptr, true);
    kernel.shutdown();
    sim::SimClock clock;
    EXPECT_EQ(os::Journal::replay(machine.disk(), clock), 0u);
}
