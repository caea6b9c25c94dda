/**
 * @file
 * Warm-reboot detection accounting: pages corrupted by wild stores
 * are flagged by their registry checksums during the restore, and
 * the report's counters reflect what happened — the section 3.2
 * apparatus end to end.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

TEST(WarmChecksum, CorruptedDataPageIsCountedAndStillRestored)
{
    sim::Machine machine(test::smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioNoProtection),
                        {.maintainChecksums = true});
    system.boot(true);

    os::Process proc(1);
    auto &vfs = system.kernel().vfs();
    std::vector<u8> data(8192, 0x2d);
    auto fd = vfs.open(proc, "/victim", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(proc, fd.value()));
    const InodeNo ino = vfs.stat("/victim").value().ino;

    // Direct corruption: a wild one-byte store into the cached page.
    auto ref = system.kernel().ubc().getPage(1, ino, 0, false);
    const Addr page = system.kernel().ubc().pagePhys(ref);
    machine.bus().store8(page + 4000,
                         machine.mem().image()[page + 4000] ^ 0xff);

    system.crash("checksum test");

    auto report = system.recover();
    os::Kernel &rebooted = system.kernel();

    // The detection apparatus flagged the page; the restore still
    // proceeded (the paper restores and lets memTest judge).
    EXPECT_EQ(report.dataChecksumBad, 1u);
    EXPECT_GT(report.dataPagesRestored, 0u);

    std::vector<u8> out(8192);
    auto rfd = rebooted.vfs().open(proc, "/victim",
                                   os::OpenFlags::readOnly());
    rio::wl::tolerate(rebooted.vfs().read(proc, rfd.value(), out));
    EXPECT_EQ(out[3999], 0x2d);
    EXPECT_EQ(out[4000], 0x2d ^ 0xff); // The corrupted byte.
}

TEST(WarmChecksum, CorruptedMetadataBlockIsCounted)
{
    sim::Machine machine(test::smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioNoProtection),
                        {.maintainChecksums = true});
    system.boot(true);

    os::Process proc(1);
    rio::wl::tolerate(system.kernel().vfs().mkdir("/dir"));
    for (int i = 0; i < 3; ++i) {
        rio::wl::tolerate(system.kernel().vfs().open(proc, "/dir/f" + std::to_string(i),
                           os::OpenFlags::writeOnly()));
    }

    // Corrupt the directory's cached metadata block directly.
    auto &ufs = system.kernel().ufs();
    auto dirIno = ufs.namei("/dir");
    auto dirInode = ufs.iget(dirIno.value());
    auto block = ufs.bmap(dirIno.value(), dirInode.value(), 0, false);
    auto bref = system.kernel().bufferCache().bread(1, block.value());
    const Addr page = system.kernel().bufferCache().pageAddr(bref);
    system.kernel().bufferCache().brelse(bref);
    machine.bus().store8(page + 100,
                         machine.mem().image()[page + 100] ^ 0x55);

    system.crash("meta checksum");

    auto report = system.restoreMetadata();
    EXPECT_GE(report.metadataChecksumBad, 1u);
}

TEST(WarmChecksum, PerfModeSkipsChecksums)
{
    sim::Machine machine(test::smallMachine());
    // Checksums off: Table 2 mode.
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(true);
    os::Kernel &kernel = system.kernel();

    os::Process proc(1);
    std::vector<u8> data(4096, 7);
    auto fd = kernel.vfs().open(proc, "/np",
                                os::OpenFlags::writeOnly());
    rio::wl::tolerate(kernel.vfs().write(proc, fd.value(), data));
    rio::wl::tolerate(kernel.vfs().close(proc, fd.value()));

    const auto sweep = system.rio()->verifyChecksums();
    EXPECT_EQ(sweep.checked, 0u); // No checksums were maintained.
}
