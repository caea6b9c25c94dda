/**
 * @file
 * Hard-link semantics: shared contents, link-count maintenance,
 * removal only freeing on the last link, interactions with rename,
 * fsck's nlink accounting, and Rio crash recovery of linked files.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

struct Rig
{
    Rig()
        : machine(test::smallMachine()),
          system(machine, os::systemPreset(os::SystemPreset::UfsDelayAll))
    {
        system.boot(true);
    }

    sim::Machine machine;
    core::System system;
    os::Process proc{1};
};

} // namespace

TEST(HardLinks, LinkSharesContentsBothWays)
{
    Rig rig;
    auto &vfs = rig.system.kernel().vfs();
    std::vector<u8> data(5000, 0x5b);
    auto fd = vfs.open(rig.proc, "/orig", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    ASSERT_TRUE(vfs.link("/orig", "/alias").ok());
    EXPECT_EQ(vfs.stat("/alias").value().ino,
              vfs.stat("/orig").value().ino);
    EXPECT_EQ(vfs.stat("/orig").value().nlink, 2);

    // Write through the alias, read through the original.
    std::vector<u8> patch(100, 0x6c);
    auto afd = vfs.open(rig.proc, "/alias", os::OpenFlags::readWrite());
    rio::wl::tolerate(vfs.pwrite(rig.proc, afd.value(), 0, patch));
    rio::wl::tolerate(vfs.close(rig.proc, afd.value()));
    std::vector<u8> out(100);
    auto ofd = vfs.open(rig.proc, "/orig", os::OpenFlags::readOnly());
    rio::wl::tolerate(vfs.read(rig.proc, ofd.value(), out));
    EXPECT_EQ(out, patch);
}

TEST(HardLinks, RemoveOnlyFreesLastLink)
{
    Rig rig;
    auto &vfs = rig.system.kernel().vfs();
    auto fd = vfs.open(rig.proc, "/a", os::OpenFlags::writeOnly());
    std::vector<u8> data(20000, 0x42);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    ASSERT_TRUE(vfs.link("/a", "/b").ok());

    const u32 freeBefore = rig.system.kernel().ufs().freeBlocks();
    ASSERT_TRUE(vfs.unlink("/a").ok());
    // Blocks still held by /b.
    EXPECT_EQ(rig.system.kernel().ufs().freeBlocks(), freeBefore);
    EXPECT_EQ(vfs.stat("/b").value().nlink, 1);
    std::vector<u8> out(20000);
    auto bfd = vfs.open(rig.proc, "/b", os::OpenFlags::readOnly());
    ASSERT_TRUE(vfs.read(rig.proc, bfd.value(), out).ok());
    EXPECT_EQ(out, data);
    rio::wl::tolerate(vfs.close(rig.proc, bfd.value()));

    ASSERT_TRUE(vfs.unlink("/b").ok());
    EXPECT_GT(rig.system.kernel().ufs().freeBlocks(), freeBefore);
}

TEST(HardLinks, NoLinksToDirectories)
{
    Rig rig;
    auto &vfs = rig.system.kernel().vfs();
    rio::wl::tolerate(vfs.mkdir("/d"));
    EXPECT_EQ(vfs.link("/d", "/dlink").status(),
              support::OsStatus::IsDir);
}

TEST(HardLinks, LinkOverExistingNameFails)
{
    Rig rig;
    auto &vfs = rig.system.kernel().vfs();
    rio::wl::tolerate(vfs.open(rig.proc, "/x", os::OpenFlags::writeOnly()));
    rio::wl::tolerate(vfs.open(rig.proc, "/y", os::OpenFlags::writeOnly()));
    EXPECT_EQ(vfs.link("/x", "/y").status(),
              support::OsStatus::Exist);
    EXPECT_EQ(vfs.stat("/x").value().nlink, 1);
}

TEST(HardLinks, LinkToMissingFileFails)
{
    Rig rig;
    EXPECT_EQ(rig.system.kernel().vfs().link("/none", "/l").status(),
              support::OsStatus::NoEnt);
}

TEST(HardLinks, FsckAcceptsCorrectLinkCounts)
{
    Rig rig;
    auto &vfs = rig.system.kernel().vfs();
    rio::wl::tolerate(vfs.open(rig.proc, "/f", os::OpenFlags::writeOnly()));
    rio::wl::tolerate(vfs.link("/f", "/g"));
    rio::wl::tolerate(vfs.link("/f", "/h"));
    EXPECT_EQ(vfs.stat("/f").value().nlink, 3);
    rig.system.kernel().shutdown();

    sim::SimClock clock;
    auto report = os::runFsck(rig.machine.disk(), clock, true);
    EXPECT_EQ(report.nlinkFixed, 0u);
    EXPECT_EQ(report.errorsFixed(), 0u);
}

TEST(HardLinks, SurviveRioCrash)
{
    sim::Machine machine(test::smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(true);

    os::Process proc(1);
    auto &vfs = system.vfs();
    std::vector<u8> data(9000, 0x77);
    auto fd = vfs.open(proc, "/linked", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(proc, fd.value()));
    ASSERT_TRUE(vfs.link("/linked", "/twin").ok());

    system.crash("link crash");
    system.recover();
    os::Kernel &rebooted = system.kernel();

    // Both names survive, still aliased, contents intact, and fsck
    // found nothing to fix.
    EXPECT_EQ(rebooted.vfs().stat("/linked").value().ino,
              rebooted.vfs().stat("/twin").value().ino);
    EXPECT_EQ(rebooted.vfs().stat("/twin").value().nlink, 2);
    std::vector<u8> out(9000);
    auto rfd = rebooted.vfs().open(proc, "/twin",
                                   os::OpenFlags::readOnly());
    rio::wl::tolerate(rebooted.vfs().read(proc, rfd.value(), out));
    EXPECT_EQ(out, data);
    ASSERT_TRUE(rebooted.lastFsck().has_value());
    EXPECT_EQ(rebooted.lastFsck()->nlinkFixed, 0u);
}
