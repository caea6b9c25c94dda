/**
 * @file
 * Property-based tests (parameterized sweeps).
 *
 *  - CrashAnywhereProperty: the paper's core invariant. For any
 *    workload prefix, crash the Rio system at that point with no
 *    warning, warm-reboot, and every completed operation must be
 *    intact (memTest replay comparison). Swept over seeds and crash
 *    points.
 *  - DifferentialFsProperty: the simulated UFS agrees with a
 *    host-side model file system over long random operation
 *    sequences, across seeds and system presets.
 *  - PolicyOrderingProperty: more durable configurations never write
 *    less to disk, across seeds.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

// ------------------------------------------------------------------
// Crash-anywhere recovery.
// ------------------------------------------------------------------

class CrashAnywhereProperty
    : public ::testing::TestWithParam<std::tuple<u64, int>>
{
};

TEST_P(CrashAnywhereProperty, EveryCompletedWriteSurvives)
{
    const u64 seed = std::get<0>(GetParam());
    const int crashAfterOps = std::get<1>(GetParam());

    sim::Machine machine(test::smallMachine(seed));
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected),
                        {.maintainChecksums = true});
    system.boot(true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed * 13 + 1;
    memtestConfig.maxFileSetBytes = 1 << 20;
    wl::MemTest memtest(system.kernel(), memtestConfig);
    memtest.setup();
    for (int op = 0; op < crashAfterOps; ++op)
        memtest.step();

    system.crash("property crash");
    const auto report = system.recover();

    const auto result = memtest.verify(system.kernel());
    EXPECT_FALSE(result.corrupt())
        << "seed=" << seed << " ops=" << crashAfterOps << ": "
        << (result.details.empty() ? std::string()
                                   : result.details.front());
    EXPECT_EQ(report.corruptEntries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashAnywhereProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0, 1, 7, 100, 800)));

// ------------------------------------------------------------------
// Differential testing against the model file system.
// ------------------------------------------------------------------

class DifferentialFsProperty
    : public ::testing::TestWithParam<std::tuple<u64, os::SystemPreset>>
{
};

TEST_P(DifferentialFsProperty, KernelMatchesModelOracle)
{
    const u64 seed = std::get<0>(GetParam());
    const os::SystemPreset preset = std::get<1>(GetParam());

    sim::Machine machine(test::smallMachine(seed));
    core::System system(machine, os::systemPreset(preset));
    system.boot(true);
    os::Kernel &kernel = system.kernel();

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed * 7 + 5;
    memtestConfig.maxFileSetBytes = 1 << 20;
    wl::MemTest memtest(kernel, memtestConfig);
    memtest.setup();
    for (int op = 0; op < 2500; ++op)
        memtest.step();

    EXPECT_FALSE(memtest.liveMismatchSeen());
    const auto result = memtest.verify(kernel);
    EXPECT_FALSE(result.corrupt())
        << (result.details.empty() ? std::string()
                                   : result.details.front());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialFsProperty,
    ::testing::Combine(
        ::testing::Values(11, 22, 33),
        ::testing::Values(os::SystemPreset::UfsDefault,
                          os::SystemPreset::UfsDelayAll,
                          os::SystemPreset::AdvFsJournal,
                          os::SystemPreset::MemoryFs,
                          os::SystemPreset::UfsWriteThroughWrite,
                          os::SystemPreset::RioProtected)));

// ------------------------------------------------------------------
// Durability ordering.
// ------------------------------------------------------------------

class PolicyOrderingProperty : public ::testing::TestWithParam<u64>
{
  protected:
    u64
    diskWritesFor(os::SystemPreset preset)
    {
        sim::Machine machine(test::smallMachine(GetParam()));
        os::KernelConfig config = os::systemPreset(preset);
        if (config.rio)
            config.protection = os::ProtectionMode::Off;
        core::System system(machine, config);
        system.boot(true);
        os::Kernel &kernel = system.kernel();
        kernel.fsDisk().resetStats();

        os::Process proc(1);
        auto &vfs = kernel.vfs();
        std::vector<u8> data(4096);
        support::Rng rng(GetParam());
        for (int i = 0; i < 60; ++i) {
            rng.fill(data);
            auto fd = vfs.open(proc, "/f" + std::to_string(i % 20),
                               os::OpenFlags::writeOnly());
            if (fd.ok()) {
                rio::wl::tolerate(vfs.write(proc, fd.value(), data));
                rio::wl::tolerate(vfs.close(proc, fd.value()));
            }
        }
        kernel.fsDisk().drain(machine.clock());
        return kernel.fsDisk().stats().sectorsWritten;
    }
};

TEST_P(PolicyOrderingProperty, MoreDurableNeverWritesLess)
{
    const u64 rio = diskWritesFor(os::SystemPreset::RioProtected);
    const u64 delay = diskWritesFor(os::SystemPreset::UfsDelayAll);
    const u64 ufs = diskWritesFor(os::SystemPreset::UfsDefault);
    const u64 wtc =
        diskWritesFor(os::SystemPreset::UfsWriteThroughClose);
    const u64 wtw =
        diskWritesFor(os::SystemPreset::UfsWriteThroughWrite);

    EXPECT_EQ(rio, 0u);
    EXPECT_LE(rio, delay);
    EXPECT_LE(delay, ufs);
    EXPECT_LE(ufs, wtc);
    EXPECT_LE(wtc, wtw);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolicyOrderingProperty,
                         ::testing::Values(101, 202, 303));
