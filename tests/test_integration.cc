/**
 * @file
 * Cross-module integration tests: preset wiring, crashes landing in
 * the middle of an operation (memTest's in-flight tolerance), the
 * journal wrapping its log, recovery under every protection mode,
 * and crash/recovery under each workload.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "fault/injector.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/andrew.hh"
#include "workload/memtest.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

TEST(Presets, MapToExpectedKnobs)
{
    using os::SystemPreset;
    auto mfs = os::systemPreset(SystemPreset::MemoryFs);
    EXPECT_EQ(mfs.fs, os::FsKind::Mfs);
    EXPECT_FALSE(mfs.rio);

    auto advfs = os::systemPreset(SystemPreset::AdvFsJournal);
    EXPECT_EQ(advfs.fs, os::FsKind::Journal);
    EXPECT_EQ(advfs.metadata, os::MetadataPolicy::Logged);
    EXPECT_EQ(advfs.journal.mode, os::JournalMode::Writeback);
    EXPECT_EQ(advfs.journal.maxTxBlocks, 16u);

    auto ufs = os::systemPreset(SystemPreset::UfsDefault);
    EXPECT_EQ(ufs.metadata, os::MetadataPolicy::Sync);
    EXPECT_EQ(ufs.data, os::DataPolicy::Async64K);
    EXPECT_FALSE(ufs.fsyncOnClose);

    auto wtc = os::systemPreset(SystemPreset::UfsWriteThroughClose);
    EXPECT_TRUE(wtc.fsyncOnClose);
    EXPECT_EQ(wtc.data, os::DataPolicy::Async64K);

    auto wtw = os::systemPreset(SystemPreset::UfsWriteThroughWrite);
    EXPECT_EQ(wtw.data, os::DataPolicy::SyncOnWrite);

    auto rioNp = os::systemPreset(SystemPreset::RioNoProtection);
    EXPECT_TRUE(rioNp.rio);
    EXPECT_EQ(rioNp.protection, os::ProtectionMode::Off);
    EXPECT_EQ(rioNp.metadata, os::MetadataPolicy::Never);

    auto rioP = os::systemPreset(SystemPreset::RioProtected);
    EXPECT_TRUE(rioP.rio);
    EXPECT_EQ(rioP.protection, os::ProtectionMode::VmTlb);

    // Names and permanence strings exist and are distinct, for every
    // preset through the last one.
    constexpr int kPresets =
        static_cast<int>(SystemPreset::JournalData) + 1;
    std::set<std::string> names;
    for (int preset = 0; preset < kPresets; ++preset) {
        names.insert(os::systemPresetName(
            static_cast<os::SystemPreset>(preset)));
        EXPECT_NE(std::string(os::systemPresetPermanence(
                      static_cast<os::SystemPreset>(preset))),
                  "?");
    }
    EXPECT_EQ(names.size(), 12u);
}

TEST(Integration, CrashInsideAnOperationIsTolerated)
{
    // Arm a panic on the UBC write path so the crash lands *inside*
    // a memTest operation; the verifier must tolerate the in-flight
    // op (paper: blocks marked "changing" cannot be judged).
    sim::Machine machine(test::smallMachine(3));
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioNoProtection);
    core::RioOptions options;
    options.protection = config.protection;
    options.maintainChecksums = true;
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = 41;
    wl::MemTest memtest(*kernel, memtestConfig);
    memtest.setup();
    for (int op = 0; op < 300; ++op)
        memtest.step();

    os::Manifestation m;
    m.kind = os::Manifestation::Kind::PanicNow;
    kernel->procs().arm(os::ProcId::UfsWriteFile, m);

    bool crashed = false;
    try {
        for (int op = 0; op < 1000; ++op)
            memtest.step();
    } catch (const sim::CrashException &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);

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

    const auto result = memtest.verify(rebooted);
    EXPECT_FALSE(result.corrupt())
        << (result.details.empty() ? std::string()
                                   : result.details.front());
}

TEST(Integration, JournalWrapCheckpointsAndStaysConsistent)
{
    sim::Machine machine(test::smallMachine(5));
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::AdvFsJournal));
    kernel.boot(nullptr, true);
    os::Process proc(1);
    auto &vfs = kernel.vfs();
    // The log has 63 data slots after its superblock; fsync commits a
    // transaction per file, so 300 of them wrap it many times over
    // and log-space pressure forces checkpoints.
    std::vector<u8> data(2000, 1);
    for (int round = 0; round < 30; ++round) {
        for (int i = 0; i < 10; ++i) {
            const std::string path = "/w" + std::to_string(i);
            rio::wl::tolerate(vfs.unlink(path));
            auto fd = vfs.open(proc, path,
                               os::OpenFlags::writeOnly());
            if (fd.ok()) {
                rio::wl::tolerate(vfs.write(proc, fd.value(), data));
                rio::wl::tolerate(vfs.fsync(proc, fd.value()));
                rio::wl::tolerate(vfs.close(proc, fd.value()));
            }
        }
    }
    EXPECT_GT(kernel.journal().recordsWritten(), 63u);
    EXPECT_GT(kernel.journal().checkpointsDone(), 0u);
    // Lockdep is on by default: a heavy workload must not produce a
    // single rank-ordering violation in the fs -> ubc -> buf lattice.
    EXPECT_GT(kernel.locks().lockdepEvents(), 0u);
    EXPECT_EQ(kernel.locks().rankViolations(), 0u)
        << (kernel.locks().rankViolationLog().empty()
                ? std::string()
                : kernel.locks().rankViolationLog()[0]);
    kernel.shutdown();

    os::Kernel second(machine,
                      os::systemPreset(os::SystemPreset::AdvFsJournal));
    second.boot(nullptr, false);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(
            second.ufs().namei("/w" + std::to_string(i)).ok());
    }
}

class RecoveryAcrossProtectionModes
    : public ::testing::TestWithParam<os::ProtectionMode>
{
};

TEST_P(RecoveryAcrossProtectionModes, CrashRecoverVerify)
{
    sim::Machine machine(test::smallMachine(7));
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    config.protection = GetParam();
    core::RioOptions options;
    options.protection = GetParam();
    options.maintainChecksums = true;
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = 43;
    wl::MemTest memtest(*kernel, memtestConfig);
    memtest.setup();
    for (int op = 0; op < 600; ++op)
        memtest.step();

    try {
        machine.crash(sim::CrashCause::KernelPanic, "param crash");
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
    const auto result = memtest.verify(rebooted);
    EXPECT_FALSE(result.corrupt());
}

INSTANTIATE_TEST_SUITE_P(AllModes, RecoveryAcrossProtectionModes,
                         ::testing::Values(os::ProtectionMode::Off,
                                           os::ProtectionMode::VmTlb,
                                           os::ProtectionMode::CodePatch));

TEST(Integration, AndrewSurvivesRioCrashMidCompile)
{
    sim::Machine machine(test::smallMachine(11));
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    core::RioOptions options;
    options.protection = config.protection;
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    wl::AndrewConfig andrewConfig;
    andrewConfig.files = 12;
    andrewConfig.dirs = 3;
    wl::Andrew andrew(*kernel, andrewConfig);
    for (int step = 0; step < 60; ++step)
        andrew.step();

    try {
        machine.crash(sim::CrashCause::KernelPanic, "mid-andrew");
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

    // The already-copied sources must be intact byte for byte.
    os::Process proc(1);
    std::vector<u8> expected, actual;
    auto st = rebooted.vfs().stat("/andrew/dir0/src0.c");
    ASSERT_TRUE(st.ok());
    expected.resize(st.value().size);
    wl::fillPattern(expected, andrewConfig.seed * 31 + 0);
    actual.resize(st.value().size);
    auto fd = rebooted.vfs().open(proc, "/andrew/dir0/src0.c",
                                  os::OpenFlags::readOnly());
    ASSERT_TRUE(fd.ok());
    rio::wl::tolerate(rebooted.vfs().read(proc, fd.value(), actual));
    EXPECT_EQ(actual, expected);
}

TEST(Integration, BackToBackCrashesAccumulateNoDamage)
{
    sim::Machine machine(test::smallMachine(13));
    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    core::RioOptions options;
    options.protection = config.protection;

    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = 47;
    memtestConfig.maxFileSetBytes = 512 * 1024;
    wl::MemTest memtest(*kernel, memtestConfig);
    memtest.setup();

    for (int round = 0; round < 5; ++round) {
        for (int op = 0; op < 200; ++op)
            memtest.step();
        try {
            machine.crash(sim::CrashCause::KernelPanic,
                          "round " + std::to_string(round));
        } catch (const sim::CrashException &) {
        }
        rio->deactivate();
        rio.reset();
        kernel.reset();
        machine.reset(sim::ResetKind::Warm);
        core::WarmReboot warm(machine);
        auto report = warm.dumpAndRestoreMetadata();
        rio = std::make_unique<core::RioSystem>(machine, options);
        kernel = std::make_unique<os::Kernel>(machine, config);
        kernel->boot(rio.get(), false);
        warm.restoreData(kernel->vfs(), report);

        // memTest carries on against the rebooted kernel — its model
        // must keep matching across every crash/reboot cycle.
        memtest.rebind(*kernel);
        const auto result = memtest.verify(*kernel);
        ASSERT_FALSE(result.corrupt())
            << "round " << round << ": "
            << (result.details.empty() ? std::string()
                                       : result.details.front());
    }
}
