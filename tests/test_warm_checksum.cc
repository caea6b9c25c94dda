/**
 * @file
 * Warm-reboot detection accounting: pages corrupted by wild stores
 * are flagged by their registry checksums during the restore, and
 * the report's counters reflect what happened — the section 3.2
 * apparatus end to end.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

TEST(WarmChecksum, CorruptedDataPageIsCountedAndStillRestored)
{
    sim::Machine machine(test::smallMachine());
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioNoProtection);
    core::RioOptions options;
    options.protection = config.protection;
    options.maintainChecksums = true;
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    os::Process proc(1);
    auto &vfs = kernel->vfs();
    std::vector<u8> data(8192, 0x2d);
    auto fd = vfs.open(proc, "/victim", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(proc, fd.value()));
    const InodeNo ino = vfs.stat("/victim").value().ino;

    // Direct corruption: a wild one-byte store into the cached page.
    auto ref = kernel->ubc().getPage(1, ino, 0, false);
    const Addr page = kernel->ubc().pagePhys(ref);
    machine.mem().raw()[page + 4000] ^= 0xff;

    try {
        machine.crash(sim::CrashCause::KernelPanic, "checksum test");
    } catch (const sim::CrashException &) {
    }
    rio->deactivate();
    rio.reset();
    kernel.reset();
    machine.reset(sim::ResetKind::Warm);

    core::WarmReboot warm(machine);
    auto report = warm.dumpAndRestoreMetadata();
    core::RioSystem rio2(machine, options);
    os::Kernel rebooted(machine, config);
    rebooted.boot(&rio2, false);
    warm.restoreData(rebooted.vfs(), report);

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
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioNoProtection);
    core::RioOptions options;
    options.protection = config.protection;
    options.maintainChecksums = true;
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    os::Process proc(1);
    rio::wl::tolerate(kernel->vfs().mkdir("/dir"));
    for (int i = 0; i < 3; ++i) {
        rio::wl::tolerate(kernel->vfs().open(proc, "/dir/f" + std::to_string(i),
                           os::OpenFlags::writeOnly()));
    }

    // Corrupt the directory's cached metadata block directly.
    auto &ufs = kernel->ufs();
    auto dirIno = ufs.namei("/dir");
    auto dirInode = ufs.iget(dirIno.value());
    auto block = ufs.bmap(dirIno.value(), dirInode.value(), 0, false);
    auto bref = kernel->bufferCache().bread(1, block.value());
    const Addr page = kernel->bufferCache().pageAddr(bref);
    kernel->bufferCache().brelse(bref);
    machine.mem().raw()[page + 100] ^= 0x55;

    try {
        machine.crash(sim::CrashCause::KernelPanic, "meta checksum");
    } catch (const sim::CrashException &) {
    }
    rio->deactivate();
    rio.reset();
    kernel.reset();
    machine.reset(sim::ResetKind::Warm);

    core::WarmReboot warm(machine);
    auto report = warm.dumpAndRestoreMetadata();
    EXPECT_GE(report.metadataChecksumBad, 1u);
}

TEST(WarmChecksum, PerfModeSkipsChecksums)
{
    sim::Machine machine(test::smallMachine());
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    core::RioOptions options;
    options.protection = config.protection;
    options.maintainChecksums = false; // Table 2 mode.
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    os::Kernel kernel(machine, config);
    kernel.boot(rio.get(), true);

    os::Process proc(1);
    std::vector<u8> data(4096, 7);
    auto fd = kernel.vfs().open(proc, "/np",
                                os::OpenFlags::writeOnly());
    rio::wl::tolerate(kernel.vfs().write(proc, fd.value(), data));
    rio::wl::tolerate(kernel.vfs().close(proc, fd.value()));

    const auto sweep = rio->verifyChecksums();
    EXPECT_EQ(sweep.checked, 0u); // No checksums were maintained.
}
