/**
 * @file
 * Tests for the VFS/syscall layer: descriptor lifecycle, offsets and
 * append mode, and — most importantly for the paper — the per-policy
 * durability triggers (write-through on write/close, async-after-
 * 64KB, Rio's instant fsync).
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

struct Rig
{
    explicit Rig(os::SystemPreset preset)
        : machine(test::smallMachine()),
          kernel(machine, os::systemPreset(preset))
    {
        kernel.boot(nullptr, true);
        kernel.fsDisk().resetStats();
    }

    sim::Machine machine;
    os::Kernel kernel;
    os::Process proc{1};
};

} // namespace

TEST(VfsTest, OpenMissingWithoutCreateFails)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto fd = rig.kernel.vfs().open(rig.proc, "/missing",
                                    os::OpenFlags::readOnly());
    EXPECT_EQ(fd.status(), support::OsStatus::NoEnt);
}

TEST(VfsTest, OpenExclusiveFailsOnExisting)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    auto flags = os::OpenFlags::writeOnly();
    flags.excl = true;
    ASSERT_TRUE(vfs.open(rig.proc, "/x", flags).ok());
    auto again = vfs.open(rig.proc, "/x", flags);
    EXPECT_EQ(again.status(), support::OsStatus::Exist);
}

TEST(VfsTest, SequentialReadAdvancesOffset)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/seq", os::OpenFlags::writeOnly());
    std::vector<u8> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    auto rfd = vfs.open(rig.proc, "/seq", os::OpenFlags::readOnly());
    std::vector<u8> part(40);
    ASSERT_TRUE(vfs.read(rig.proc, rfd.value(), part).ok());
    EXPECT_EQ(part[0], 0);
    ASSERT_TRUE(vfs.read(rig.proc, rfd.value(), part).ok());
    EXPECT_EQ(part[0], 40);
    auto n = vfs.read(rig.proc, rfd.value(), part);
    EXPECT_EQ(n.value(), 20u); // Only 20 bytes left.
}

TEST(VfsTest, AppendModeWritesAtEof)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    std::vector<u8> a(10, 1), b(10, 2);
    auto fd = vfs.open(rig.proc, "/app", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), a));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    auto flags = os::OpenFlags::readWrite();
    flags.append = true;
    auto afd = vfs.open(rig.proc, "/app", flags);
    rio::wl::tolerate(vfs.write(rig.proc, afd.value(), b));
    rio::wl::tolerate(vfs.close(rig.proc, afd.value()));

    auto st = vfs.stat("/app");
    EXPECT_EQ(st.value().size, 20u);
    std::vector<u8> out(20);
    auto rfd = vfs.open(rig.proc, "/app", os::OpenFlags::readOnly());
    rio::wl::tolerate(vfs.read(rig.proc, rfd.value(), out));
    EXPECT_EQ(out[9], 1);
    EXPECT_EQ(out[10], 2);
}

TEST(VfsTest, TruncOnOpenEmptiesFile)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    std::vector<u8> data(5000, 7);
    auto fd = vfs.open(rig.proc, "/t", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    auto fd2 = vfs.open(rig.proc, "/t", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.close(rig.proc, fd2.value()));
    EXPECT_EQ(vfs.stat("/t").value().size, 0u);
}

TEST(VfsTest, BadFdRejected)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    std::vector<u8> buf(8);
    EXPECT_EQ(rig.kernel.vfs().read(rig.proc, 42, buf).status(),
              support::OsStatus::BadFd);
    EXPECT_EQ(rig.kernel.vfs().close(rig.proc, -1).status(),
              support::OsStatus::BadFd);
}

TEST(VfsTest, ClosedFdCannotBeUsed)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/c", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    std::vector<u8> buf(8, 0);
    EXPECT_EQ(vfs.write(rig.proc, fd.value(), buf).status(),
              support::OsStatus::BadFd);
}

TEST(VfsTest, WriteToReadOnlyFdDenied)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    rio::wl::tolerate(vfs.open(rig.proc, "/ro", os::OpenFlags::writeOnly()));
    auto fd = vfs.open(rig.proc, "/ro", os::OpenFlags::readOnly());
    std::vector<u8> buf(8, 0);
    EXPECT_EQ(vfs.write(rig.proc, fd.value(), buf).status(),
              support::OsStatus::Access);
}

TEST(VfsTest, FdLimitEnforced)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    support::OsStatus status = support::OsStatus::Ok;
    for (u32 i = 0; i < 200; ++i) {
        auto fd = vfs.open(rig.proc, "/fd" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        if (!fd.ok()) {
            status = fd.status();
            break;
        }
    }
    EXPECT_EQ(status, support::OsStatus::MFile);
}

TEST(VfsTest, LseekRepositions)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    std::vector<u8> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i);
    auto fd = vfs.open(rig.proc, "/lk", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    auto rfd = vfs.open(rig.proc, "/lk", os::OpenFlags::readOnly());
    rio::wl::tolerate(vfs.lseek(rig.proc, rfd.value(), 60));
    std::vector<u8> out(10);
    rio::wl::tolerate(vfs.read(rig.proc, rfd.value(), out));
    EXPECT_EQ(out[0], 60);
}

TEST(VfsTest, ReaddirListsEntries)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    rio::wl::tolerate(vfs.mkdir("/dir"));
    rio::wl::tolerate(vfs.open(rig.proc, "/dir/a", os::OpenFlags::writeOnly()));
    rio::wl::tolerate(vfs.mkdir("/dir/sub"));
    auto listing = vfs.readdir("/dir");
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing.value().size(), 2u);
}

TEST(VfsTest, StatReportsTypeAndSize)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    rio::wl::tolerate(vfs.mkdir("/sd"));
    auto st = vfs.stat("/sd");
    EXPECT_EQ(st.value().type, os::FileType::Dir);
    auto fd = vfs.open(rig.proc, "/sf", os::OpenFlags::writeOnly());
    std::vector<u8> data(123, 0);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    EXPECT_EQ(vfs.stat("/sf").value().size, 123u);
    EXPECT_EQ(vfs.stat("/sf").value().type, os::FileType::Regular);
}

// ---------------------------------------------------------------
// Durability policy triggers (the Table 2 differentiators).
// ---------------------------------------------------------------

TEST(VfsPolicy, WriteThroughOnWriteHitsDiskPerWrite)
{
    Rig rig(os::SystemPreset::UfsWriteThroughWrite);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/w", os::OpenFlags::writeOnly());
    std::vector<u8> data(4096, 1);
    const u64 before = rig.kernel.fsDisk().stats().sectorsWritten;
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    EXPECT_GT(rig.kernel.fsDisk().stats().sectorsWritten, before);
}

TEST(VfsPolicy, WriteThroughOnCloseDefersUntilClose)
{
    Rig rig(os::SystemPreset::UfsWriteThroughClose);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/wc", os::OpenFlags::writeOnly());
    std::vector<u8> data(4096, 1);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    const u64 afterWrite =
        rig.kernel.fsDisk().stats().sectorsWritten;
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    EXPECT_GT(rig.kernel.fsDisk().stats().sectorsWritten, afterWrite);
}

TEST(VfsPolicy, Async64KTriggersBackgroundWrite)
{
    Rig rig(os::SystemPreset::UfsDefault);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/a64", os::OpenFlags::writeOnly());
    std::vector<u8> chunk(16 * 1024, 1);
    u64 queuedBefore = rig.kernel.fsDisk().stats().queuedWrites;
    for (int i = 0; i < 5; ++i) // 80 KB > 64 KB threshold.
        rio::wl::tolerate(vfs.write(rig.proc, fd.value(), chunk));
    EXPECT_GT(rig.kernel.fsDisk().stats().queuedWrites, queuedBefore);
}

TEST(VfsPolicy, RioNeverWritesAndFsyncIsInstant)
{
    Rig rig(os::SystemPreset::RioProtected);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/rio", os::OpenFlags::writeOnly());
    std::vector<u8> data(128 * 1024, 1);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    const SimNs before = rig.machine.clock().now();
    rio::wl::tolerate(vfs.fsync(rig.proc, fd.value()));
    vfs.sync();
    const SimNs fsyncCost = rig.machine.clock().now() - before;
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    EXPECT_EQ(rig.kernel.fsDisk().stats().sectorsWritten, 0u);
    EXPECT_EQ(rig.kernel.fsDisk().stats().queuedWrites, 0u);
    // fsync/sync return immediately (just syscall entry cost).
    EXPECT_LT(fsyncCost, 100'000u);
}

TEST(VfsPolicy, RioAdminOverrideReenablesReliabilityWrites)
{
    sim::Machine machine(test::smallMachine());
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    config.adminForceSync = true;
    config.protection = os::ProtectionMode::Off;
    os::Kernel kernel(machine, config);
    kernel.boot(nullptr, true);
    kernel.fsDisk().resetStats();

    os::Process proc(1);
    auto &vfs = kernel.vfs();
    auto fd = vfs.open(proc, "/adm", os::OpenFlags::writeOnly());
    std::vector<u8> data(8192, 1);
    rio::wl::tolerate(vfs.write(proc, fd.value(), data));
    rio::wl::tolerate(vfs.fsync(proc, fd.value()));
    EXPECT_GT(kernel.fsDisk().stats().sectorsWritten, 0u);
}

TEST(VfsPolicy, NonSequentialWriteTriggersFlushInDefaultUfs)
{
    Rig rig(os::SystemPreset::UfsDefault);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/nsq", os::OpenFlags::writeOnly());
    std::vector<u8> chunk(1024, 1);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), chunk));
    const u64 before = rig.kernel.fsDisk().stats().queuedWrites;
    rio::wl::tolerate(vfs.pwrite(rig.proc, fd.value(), 100000, chunk)); // Non-seq.
    rio::wl::tolerate(vfs.pwrite(rig.proc, fd.value(), 5000, chunk));   // Non-seq again.
    EXPECT_GT(rig.kernel.fsDisk().stats().queuedWrites, before);
}

TEST(VfsPolicy, UpdateDaemonFlushesDelayedData)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/dd", os::OpenFlags::writeOnly());
    std::vector<u8> data(8192, 1);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    EXPECT_EQ(rig.kernel.fsDisk().stats().sectorsWritten, 0u);
    EXPECT_EQ(rig.kernel.fsDisk().stats().queuedWrites, 0u);

    // Let 30+ simulated seconds pass; any syscall ticks the daemon.
    rig.machine.clock().advance(31ull * sim::kNsPerSec);
    rio::wl::tolerate(vfs.stat("/dd"));
    rig.kernel.fsDisk().drain(rig.machine.clock());
    EXPECT_GT(rig.kernel.fsDisk().stats().sectorsWritten, 0u);
}

TEST(VfsTest, SymlinkAndReadlinkSyscalls)
{
    Rig rig(os::SystemPreset::UfsDelayAll);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/target",
                       os::OpenFlags::writeOnly());
    std::vector<u8> data(100, 0x12);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    ASSERT_TRUE(vfs.symlink("/target", "/ln").ok());
    auto raw = vfs.readlink("/ln");
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw.value(), "/target");
    // Opening through the link reaches the target's data.
    auto lfd = vfs.open(rig.proc, "/ln", os::OpenFlags::readOnly());
    ASSERT_TRUE(lfd.ok());
    std::vector<u8> out(100);
    ASSERT_TRUE(vfs.read(rig.proc, lfd.value(), out).ok());
    EXPECT_EQ(out, data);
    // readlink on a non-link is invalid.
    EXPECT_EQ(vfs.readlink("/target").status(),
              support::OsStatus::Inval);
}

TEST(VfsPolicy, RestoreDataByInoWritesThroughNormalPath)
{
    Rig rig(os::SystemPreset::RioProtected);
    auto &vfs = rig.kernel.vfs();
    auto fd = vfs.open(rig.proc, "/r", os::OpenFlags::writeOnly());
    std::vector<u8> data(100, 9);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    const InodeNo ino = vfs.stat("/r").value().ino;

    std::vector<u8> patch(50, 8);
    ASSERT_TRUE(vfs.restoreDataByIno(ino, 25, patch).ok());
    std::vector<u8> out(100);
    auto rfd = vfs.open(rig.proc, "/r", os::OpenFlags::readOnly());
    rio::wl::tolerate(vfs.read(rig.proc, rfd.value(), out));
    EXPECT_EQ(out[24], 9);
    EXPECT_EQ(out[25], 8);
    EXPECT_EQ(out[74], 8);
    EXPECT_EQ(out[75], 9);

    EXPECT_EQ(vfs.restoreDataByIno(4040, 0, patch).status(),
              support::OsStatus::Stale);
}
