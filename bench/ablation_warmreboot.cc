/**
 * @file
 * Ablation A5: warm reboot requires hardware that preserves memory
 * across a reset. Section 5 notes DEC Alphas allow reset-and-boot
 * without erasing memory, while the PCs the authors tested do not —
 * the same problem that kept Harp from using warm reboot (section
 * 6). We crash an identical Rio machine on both kinds of hardware
 * and compare what survives, and break down where the warm-reboot
 * time goes.
 */

#include <cstdio>
#include <memory>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "harness/hconfig.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"

using namespace rio;

namespace
{

struct Recovery
{
    u64 filesExpected = 0;
    u64 filesIntact = 0;
    u64 metadataRestored = 0;
    u64 dataPagesRestored = 0;
    double dumpSeconds = 0;
    double metadataSeconds = 0;
    double dataSeconds = 0;
};

Recovery
crashAndRecover(bool memorySurvives, u64 seed)
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 32ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 32ull << 20;
    machineConfig.memorySurvivesReset = memorySurvives;
    machineConfig.seed = seed;
    sim::Machine machine(machineConfig);

    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    core::RioOptions options;
    options.protection = config.protection;
    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(rio.get(), true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed;
    wl::MemTest memtest(*kernel, memtestConfig);
    memtest.setup();
    for (int i = 0; i < 3000; ++i)
        memtest.step();

    Recovery recovery;
    recovery.filesExpected = memtest.model().files().size();

    try {
        machine.crash(sim::CrashCause::KernelPanic, "ablation crash");
    } catch (const sim::CrashException &) {
    }
    rio->deactivate();
    rio.reset();
    kernel.reset();
    machine.reset(sim::ResetKind::Warm);

    core::WarmReboot warm(machine);
    double mark = machine.clock().seconds();
    auto report = warm.dumpAndRestoreMetadata();
    recovery.dumpSeconds = machine.clock().seconds() - mark;
    recovery.metadataRestored = report.metadataRestored;

    core::RioSystem rio2(machine, options);
    os::Kernel rebooted(machine, config);
    mark = machine.clock().seconds();
    rebooted.boot(&rio2, false);
    recovery.metadataSeconds = machine.clock().seconds() - mark;

    mark = machine.clock().seconds();
    warm.restoreData(rebooted.vfs(), report);
    recovery.dataSeconds = machine.clock().seconds() - mark;
    recovery.dataPagesRestored = report.dataPagesRestored;

    const auto verify = memtest.verify(rebooted);
    recovery.filesIntact =
        verify.filesChecked - verify.missingFiles -
        verify.contentMismatches - verify.sizeMismatches -
        verify.readErrors;
    return recovery;
}

} // namespace

int
main()
{
    harness::rejectUnknownKnobs();
    const u64 seed = harness::envU64("RIO_SEED", 1);

    std::printf("A5: warm reboot on memory-preserving vs "
                "memory-clearing hardware\n\n");
    for (const bool survives : {true, false}) {
        const Recovery r = crashAndRecover(survives, seed);
        std::printf("%s:\n", survives
                                 ? "DEC-style (memory survives reset)"
                                 : "PC-style (reset clears memory)");
        std::printf("  files intact after crash : %llu of %llu\n",
                    static_cast<unsigned long long>(r.filesIntact),
                    static_cast<unsigned long long>(r.filesExpected));
        std::printf("  metadata blocks restored : %llu\n",
                    static_cast<unsigned long long>(
                        r.metadataRestored));
        std::printf("  data pages restored      : %llu\n",
                    static_cast<unsigned long long>(
                        r.dataPagesRestored));
        std::printf("  dump+metadata / fsck+boot / data restore: "
                    "%.1f / %.1f / %.1f simulated s\n\n",
                    r.dumpSeconds, r.metadataSeconds, r.dataSeconds);
    }
    std::printf("Architectural implication (section 5): the system "
                "should treat memory like\na removable peripheral — "
                "reset and reboot must not erase it.\n");
    return 0;
}
