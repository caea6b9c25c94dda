/**
 * @file
 * core::System: one boot, crash and recovery sequence for every
 * system preset — journal replay for the journaling presets, the warm
 * reboot for Rio, the NV graft for rio-nv — and what teardown leaves
 * behind.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "harness/hconfig.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

constexpr int kPresets = static_cast<int>(os::SystemPreset::JournalData) + 1;

sim::MachineConfig
machineFor(const os::KernelConfig &config)
{
    sim::MachineConfig machine = test::smallMachine();
    if (config.rioNvMirror)
        harness::fitNvRegion(machine);
    return machine;
}

class SystemRecovery : public ::testing::TestWithParam<int>
{};

} // namespace

TEST_P(SystemRecovery, FsyncedFileSurvivesCrashAndRecover)
{
    const os::KernelConfig config =
        os::systemPreset(static_cast<os::SystemPreset>(GetParam()));
    sim::Machine machine(machineFor(config));
    core::System system(machine, config, {.maintainChecksums = true});
    system.boot(true);

    os::Process proc(1);
    std::vector<u8> data(12000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 29 + 5);
    auto fd = system.vfs().open(proc, "/kept", os::OpenFlags::writeOnly());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(system.vfs().write(proc, fd.value(), data).ok());
    ASSERT_TRUE(system.vfs().fsync(proc, fd.value()).ok());
    ASSERT_TRUE(system.vfs().close(proc, fd.value()).ok());

    system.crash("system test");
    EXPECT_FALSE(system.up());
    EXPECT_EQ(system.rio(), nullptr);
    const core::WarmRebootReport report = system.recover();
    ASSERT_TRUE(system.up());

    if (config.fs == os::FsKind::Mfs) {
        // A memory file system is never permanent: the reboot
        // formats a fresh RAM disk.
        EXPECT_FALSE(system.vfs().stat("/kept").ok());
        return;
    }
    auto rfd = system.vfs().open(proc, "/kept", os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    std::vector<u8> back(data.size());
    auto n = system.vfs().read(proc, rfd.value(), back);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());
    EXPECT_EQ(back, data);

    if (config.fs == os::FsKind::Journal) {
        EXPECT_GT(system.kernel().journalReplayed(), 0u);
    }
    EXPECT_EQ(system.rio() != nullptr, config.rio);
    if (config.rio) {
        EXPECT_GT(report.metadataRestored, 0u);
        EXPECT_EQ(report.staleInodes, 0u);
    } else {
        EXPECT_EQ(report.entriesSeen, 0u); // Nothing to warm-reboot.
    }
    EXPECT_EQ(report.nvMirrorPresent, config.rioNvMirror);
    EXPECT_EQ(system.kernel().locks().has("nvmirror"), config.rioNvMirror);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, SystemRecovery,
                         ::testing::Range(0, kPresets));

TEST(System, TeardownLiftsTlbProtection)
{
    sim::Machine machine(test::smallMachine());
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(true);
    ASSERT_TRUE(machine.cpu().mapKsegThroughTlb());

    const auto protectedPages = [&machine] {
        u64 count = 0;
        for (const auto kind :
             {sim::RegionKind::BufPool, sim::RegionKind::UbcPool}) {
            const sim::Region &region = machine.mem().region(kind);
            const u64 first = region.base >> sim::kPageShift;
            for (u64 vpn = first; vpn < first + region.pages(); ++vpn)
                count += machine.pageTable().read(vpn).writable ? 0 : 1;
        }
        return count;
    };
    ASSERT_GT(protectedPages(), 0u);

    system.teardown();
    EXPECT_EQ(protectedPages(), 0u);
    EXPECT_FALSE(machine.cpu().mapKsegThroughTlb());
}
