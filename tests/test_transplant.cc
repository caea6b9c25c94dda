/**
 * @file
 * Section 5's architectural claim: "If the system board fails, it
 * should be possible to move the memory board to a different system
 * without losing power or data." We simulate exactly that: the
 * machine dies, its memory board (and disks) are reseated in a
 * different chassis, and the warm reboot recovers every file there.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

TEST(Transplant, MemoryBoardMovesToAnotherChassis)
{
    const sim::MachineConfig config = test::smallMachine(1);
    sim::Machine failed(config);

    const os::KernelConfig kernelConfig =
        os::systemPreset(os::SystemPreset::RioProtected);
    core::RioOptions options;
    options.protection = kernelConfig.protection;
    auto rio = std::make_unique<core::RioSystem>(failed, options);
    auto kernel = std::make_unique<os::Kernel>(failed, kernelConfig);
    kernel->boot(rio.get(), true);

    os::Process proc(1);
    std::vector<u8> data(40000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 7 + 3);
    auto fd = kernel->vfs().open(proc, "/payload",
                                 os::OpenFlags::writeOnly());
    rio::wl::tolerate(kernel->vfs().write(proc, fd.value(), data));
    rio::wl::tolerate(kernel->vfs().close(proc, fd.value()));

    // The system board fails mid-flight (not even a clean panic).
    try {
        failed.crash(sim::CrashCause::MachineCheck,
                     "system board failure");
    } catch (const sim::CrashException &) {
    }
    rio->deactivate();
    rio.reset();
    kernel.reset();

    // Reseat the memory board and the disks in a new chassis: same
    // geometry (the config describes the board), fresh CPU state.
    sim::Machine replacement(test::smallMachine(2));
    std::memcpy(replacement.mem().raw(), failed.mem().raw(),
                failed.mem().size());
    for (SectorNo s = 0; s < failed.disk().numSectors(); ++s) {
        std::memcpy(replacement.disk().hostSector(s).data(),
                    failed.disk().peekSector(s).data(),
                    sim::kSectorSize);
    }

    // Power-on in the new chassis preserves the reseated memory
    // (DEC-style hardware); run the ordinary warm reboot there.
    replacement.reset(sim::ResetKind::Warm);
    core::WarmReboot warm(replacement);
    auto report = warm.dumpAndRestoreMetadata();
    EXPECT_GT(report.entriesSeen, 0u);
    core::RioSystem rio2(replacement, options);
    os::Kernel rebooted(replacement, kernelConfig);
    rebooted.boot(&rio2, false);
    warm.restoreData(rebooted.vfs(), report);

    std::vector<u8> out(40000);
    auto rfd = rebooted.vfs().open(proc, "/payload",
                                   os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    ASSERT_TRUE(rebooted.vfs().read(proc, rfd.value(), out).ok());
    EXPECT_EQ(out, data);
}
