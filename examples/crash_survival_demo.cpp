/**
 * @file
 * Fault-injection demo (section 3 in miniature): inject the paper's
 * nastiest fault — a kernel bcopy that overruns its destination —
 * into a running system, once with Rio's protection off and once
 * with it on.
 *
 * Without protection, the overrun silently corrupts neighbouring
 * file-cache pages (the checksum sweep finds them after the crash).
 * With protection, the overrun slams into a write-protected page and
 * the machine halts before any file data is damaged — one of the
 * "saves" counted in section 3.3.
 */

#include <cstdio>

#include "core/system.hh"
#include "fault/injector.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"

using namespace rio;

namespace
{

void
demo(os::ProtectionMode protection, u64 seed)
{
    std::printf("=== copy-overrun faults, protection %s ===\n",
                protection == os::ProtectionMode::Off ? "OFF" : "ON");

    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 32ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 32ull << 20;
    machineConfig.seed = seed;
    sim::Machine machine(machineConfig);

    os::KernelConfig kernelConfig = os::systemPreset(
        protection == os::ProtectionMode::Off
            ? os::SystemPreset::RioNoProtection
            : os::SystemPreset::RioProtected);
    core::System system(machine, kernelConfig,
                        {.maintainChecksums = true});
    system.boot(true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed;
    wl::MemTest memtest(system.kernel(), memtestConfig);
    memtest.setup();

    fault::FaultInjector injector(system.kernel(), support::Rng(seed));
    injector.inject(fault::FaultType::CopyOverrun);

    bool crashed = false;
    try {
        // Run until the fault brings the system down (or give up).
        for (int op = 0; op < 2'000'000; ++op)
            memtest.step();
    } catch (const sim::CrashException &crash) {
        machine.noteCrash(crash.when());
        crashed = true;
        std::printf("crash after %llu memTest ops: %s\n",
                    static_cast<unsigned long long>(
                        memtest.opsCompleted()),
                    crash.what());
        // The forensic trail: what was the kernel doing?
        const auto trace = system.kernel().procs().recentTrace();
        std::printf("last kernel procedures:");
        const std::size_t from =
            trace.size() > 8 ? trace.size() - 8 : 0;
        for (std::size_t i = from; i < trace.size(); ++i)
            std::printf(" %s", os::procName(trace[i].proc));
        std::printf("\n");
    }
    if (!crashed) {
        std::puts("system survived the observation window "
                  "(overruns landed harmlessly); run discarded");
        return;
    }

    const auto sweep = system.rio()->verifyChecksums();
    std::printf("protection saves: %llu, checksum sweep: %llu pages "
                "checked, %llu corrupted\n",
                static_cast<unsigned long long>(
                    system.rio()->stats().protectionSaves),
                static_cast<unsigned long long>(sweep.checked),
                static_cast<unsigned long long>(sweep.mismatches));

    // Recover and ask memTest what actually survived.
    system.teardown();
    try {
        system.recover();
        const auto verify = memtest.verify(system.kernel());
        std::printf("memTest verification: %llu files checked, "
                    "corrupt=%s\n\n",
                    static_cast<unsigned long long>(
                        verify.filesChecked),
                    verify.corrupt() ? "YES" : "no");
    } catch (const sim::CrashException &crash) {
        std::printf("recovery failed (%s): unambiguous corruption\n\n",
                    crash.what());
    }
}

} // namespace

int
main()
{
    // Seeds picked so both runs crash within the window; try others
    // to see discarded runs and different crash signatures.
    demo(os::ProtectionMode::Off, 20);
    demo(os::ProtectionMode::VmTlb, 20);
    return 0;
}
