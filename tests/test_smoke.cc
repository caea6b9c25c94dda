/**
 * @file
 * End-to-end smoke tests: boot a kernel, do file work, crash it,
 * warm-reboot it. These cover the whole stack and run first; the
 * per-module suites dig into details.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/machine.hh"

using namespace rio;

namespace
{

sim::MachineConfig
smallMachine(u64 seed = 1)
{
    sim::MachineConfig config;
    config.physMemBytes = 16ull << 20;
    config.kernelHeapBytes = 4ull << 20;
    config.bufPoolBytes = 1ull << 20;
    config.diskBytes = 32ull << 20;
    config.swapBytes = 16ull << 20;
    config.seed = seed;
    return config;
}

} // namespace

TEST(Smoke, BootFormatsAndMounts)
{
    sim::Machine machine(smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::UfsDefault));
    kernel.boot(nullptr, true);
    EXPECT_TRUE(kernel.ufs().mounted());
    EXPECT_GT(kernel.ufs().freeBlocks(), 0u);
}

TEST(Smoke, WriteReadRoundTrip)
{
    sim::Machine machine(smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::UfsDefault));
    kernel.boot(nullptr, true);
    auto &vfs = kernel.vfs();
    os::Process proc(1);

    ASSERT_TRUE(vfs.mkdir("/dir").ok());
    auto fd = vfs.open(proc, "/dir/hello", os::OpenFlags::writeOnly());
    ASSERT_TRUE(fd.ok());
    std::vector<u8> data(20000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 13);
    ASSERT_TRUE(vfs.write(proc, fd.value(), data).ok());
    ASSERT_TRUE(vfs.close(proc, fd.value()).ok());

    auto rfd = vfs.open(proc, "/dir/hello", os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    std::vector<u8> back(data.size());
    auto n = vfs.read(proc, rfd.value(), back);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());
    EXPECT_EQ(back, data);
}

TEST(Smoke, RioSurvivesCrash)
{
    sim::Machine machine(smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected),
                        {.maintainChecksums = true});
    system.boot(true);
    // Ignore mkfs/mount-marker writes.
    system.kernel().fsDisk().resetStats();

    os::Process proc(1);
    auto &vfs = system.vfs();
    std::vector<u8> data(50000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 7 + 1);

    ASSERT_TRUE(vfs.mkdir("/work").ok());
    auto fd = vfs.open(proc, "/work/file", os::OpenFlags::writeOnly());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(vfs.write(proc, fd.value(), data).ok());
    ASSERT_TRUE(vfs.close(proc, fd.value()).ok());

    // Nothing was written to the disk by Rio.
    EXPECT_EQ(system.kernel().fsDisk().stats().sectorsWritten, 0u);

    // Crash without any sync.
    try {
        machine.crash(sim::CrashCause::KernelPanic, "test crash");
        FAIL() << "crash must throw";
    } catch (const sim::CrashException &) {
    }
    system.teardown();

    auto report = system.restoreMetadata();
    EXPECT_GT(report.metadataRestored, 0u);
    system.boot(false);
    system.restoreData(report);
    os::Kernel &rebooted = system.kernel();
    EXPECT_GT(report.dataPagesRestored, 0u);
    EXPECT_EQ(report.staleInodes, 0u);

    auto rfd = rebooted.vfs().open(proc, "/work/file",
                                   os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    std::vector<u8> back(data.size());
    auto n = rebooted.vfs().read(proc, rfd.value(), back);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());
    EXPECT_EQ(back, data);
}

TEST(Smoke, DiskSystemLosesUnsyncedDataAfterCrash)
{
    sim::Machine machine(smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::UfsDelayAll));
    system.boot(true);

    os::Process proc(1);
    auto &vfs = system.vfs();
    std::vector<u8> data(8192, 0x5a);
    auto fd = vfs.open(proc, "/lost", os::OpenFlags::writeOnly());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(vfs.write(proc, fd.value(), data).ok());
    ASSERT_TRUE(vfs.close(proc, fd.value()).ok());

    system.crash("test crash");
    system.recover();
    os::Kernel &rebooted = system.kernel();
    // fsck ran (the fs was dirty) and the delayed data never made it.
    ASSERT_TRUE(rebooted.lastFsck().has_value());
    auto st = rebooted.vfs().stat("/lost");
    EXPECT_FALSE(st.ok()); // The create was delayed too.
}
