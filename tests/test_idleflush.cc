/**
 * @file
 * Tests for the Rio idle-flush extension (the paper's section 2.3
 * future work): background writes under Rio shrink the warm reboot's
 * restore work while changing nothing about reliability semantics.
 * Also the update daemon's "never" interval on a plain UFS.
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
    explicit Rig(bool idleFlush)
        : machine(test::smallMachine()), system(machine, config(idleFlush))
    {
        system.boot(true);
        kernel().fsDisk().resetStats();
    }

    static os::KernelConfig
    config(bool idleFlush)
    {
        os::KernelConfig c = os::systemPreset(os::SystemPreset::RioProtected);
        c.rioIdleFlush = idleFlush;
        return c;
    }

    os::Kernel &kernel() { return system.kernel(); }

    void
    writeWorkload()
    {
        auto &vfs = kernel().vfs();
        std::vector<u8> data(16 * 1024, 0x3e);
        for (int i = 0; i < 20; ++i) {
            auto fd = vfs.open(proc, "/f" + std::to_string(i),
                               os::OpenFlags::writeOnly());
            rio::wl::tolerate(vfs.write(proc, fd.value(), data));
            rio::wl::tolerate(vfs.close(proc, fd.value()));
        }
    }

    void
    idlePeriod()
    {
        machine.clock().advance(31ull * sim::kNsPerSec);
        rio::wl::tolerate(kernel().vfs().stat("/f0")); // Any syscall ticks the daemon.
        kernel().fsDisk().drain(machine.clock());
    }

    sim::Machine machine;
    core::System system;
    os::Process proc{1};
};

} // namespace

TEST(RioIdleFlush, OffMeansZeroDiskWrites)
{
    Rig rig(false);
    rig.writeWorkload();
    rig.idlePeriod();
    EXPECT_EQ(rig.kernel().fsDisk().stats().sectorsWritten, 0u);
}

TEST(RioIdleFlush, OnTricklesDirtyDataDuringIdle)
{
    Rig rig(true);
    rig.writeWorkload();
    rig.idlePeriod();
    EXPECT_GT(rig.kernel().fsDisk().stats().sectorsWritten, 0u);
}

TEST(RioIdleFlush, SyncStillReturnsInstantly)
{
    Rig rig(true);
    rig.writeWorkload();
    auto fd = rig.kernel().vfs().open(rig.proc, "/f0",
                                      os::OpenFlags::readOnly());
    const SimNs before = rig.machine.clock().now();
    rio::wl::tolerate(rig.kernel().vfs().fsync(rig.proc, fd.value()));
    EXPECT_LT(rig.machine.clock().now() - before, 100'000u);
}

TEST(RioIdleFlush, ShrinksWarmRebootRestoreWork)
{
    auto restoredPages = [](bool idleFlush) {
        Rig rig(idleFlush);
        rig.writeWorkload();
        rig.idlePeriod();
        rig.system.crash("x");
        const auto report = rig.system.recover();
        os::Kernel &rebooted = rig.kernel();

        // Regardless of flushing, all files must be intact.
        std::vector<u8> out(16 * 1024);
        for (int i = 0; i < 20; ++i) {
            os::Process proc(2);
            auto fd = rebooted.vfs().open(proc,
                                          "/f" + std::to_string(i),
                                          os::OpenFlags::readOnly());
            EXPECT_TRUE(fd.ok());
            if (fd.ok()) {
                auto n = rebooted.vfs().read(proc, fd.value(), out);
                EXPECT_TRUE(n.ok());
                EXPECT_EQ(out[0], 0x3e);
            }
        }
        return report.dataPagesRestored;
    };

    const u64 without = restoredPages(false);
    const u64 with = restoredPages(true);
    EXPECT_GT(without, 0u);
    EXPECT_LT(with, without); // Flushed pages need no restore.
}

TEST(UpdateDaemon, NeverIntervalIssuesNoWriteBack)
{
    // updateIntervalNs = ~0 means "never" (ablation A3's no-flush
    // arm). The deadline must saturate, not wrap to the past, or the
    // daemon writes back on every system call.
    sim::Machine machine(test::smallMachine());
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::UfsDelayAll);
    config.updateIntervalNs = ~0ull;
    os::Kernel kernel(machine, config);
    kernel.boot(nullptr, true);
    kernel.fsDisk().drain(machine.clock());
    kernel.fsDisk().resetStats();

    os::Process proc(1);
    auto &vfs = kernel.vfs();
    const std::vector<u8> data(4096, 0x3e);
    for (int i = 0; i < 8; ++i) {
        auto fd = vfs.open(proc, "/f" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        rio::wl::tolerate(vfs.write(proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(proc, fd.value()));
    }
    kernel.fsDisk().drain(machine.clock());
    EXPECT_EQ(kernel.fsDisk().stats().writes, 0u);
    EXPECT_EQ(kernel.fsDisk().stats().queuedWrites, 0u);
}
