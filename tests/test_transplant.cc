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

#include "core/system.hh"
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
    core::System dead(failed, kernelConfig);
    dead.boot(true);

    os::Process proc(1);
    std::vector<u8> data(40000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 7 + 3);
    auto fd = dead.vfs().open(proc, "/payload",
                              os::OpenFlags::writeOnly());
    rio::wl::tolerate(dead.vfs().write(proc, fd.value(), data));
    rio::wl::tolerate(dead.vfs().close(proc, fd.value()));

    // The system board fails mid-flight (not even a clean panic).
    try {
        failed.crash(sim::CrashCause::MachineCheck,
                     "system board failure");
    } catch (const sim::CrashException &) {
    }

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
    core::System system(replacement, kernelConfig);
    auto report = system.restoreMetadata();
    EXPECT_GT(report.entriesSeen, 0u);
    system.boot(false);
    system.restoreData(report);
    os::Kernel &rebooted = system.kernel();

    std::vector<u8> out(40000);
    auto rfd = rebooted.vfs().open(proc, "/payload",
                                   os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    ASSERT_TRUE(rebooted.vfs().read(proc, rfd.value(), out).ok());
    EXPECT_EQ(out, data);
}
