/**
 * @file
 * Quickstart: boot a simulated machine with the Rio file cache,
 * write a file, crash the operating system without ever touching the
 * disk, warm-reboot, and read the file back intact.
 *
 * This is the paper's headline in ~100 lines: write-back performance
 * (zero reliability-induced disk writes) with write-through
 * reliability (every completed write survives the crash).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

using namespace rio;

int
main()
{
    // --- 1. A machine and a Rio-enabled kernel. --------------------
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 32ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 32ull << 20;
    sim::Machine machine(machineConfig);

    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(/*format=*/true);
    system.kernel().fsDisk().resetStats();
    std::puts("booted: UFS with the Rio file cache, protection on");

    // --- 2. Write a file. Rio makes it permanent instantly. --------
    os::Process shell(1);
    auto &vfs = system.vfs();
    rio::wl::tolerate(vfs.mkdir("/home"));

    const std::string message =
        "This paper, the kernel source tree, and the authors' mail "
        "are stored on a Rio file server.";
    auto fd = vfs.open(shell, "/home/important.txt",
                       os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(shell, fd.value(),
              std::span<const u8>(
                  reinterpret_cast<const u8 *>(message.data()),
                  message.size())));
    rio::wl::tolerate(vfs.close(shell, fd.value()));

    std::printf("wrote %zu bytes; disk writes so far: %llu "
                "(write-back performance)\n",
                message.size(),
                static_cast<unsigned long long>(
                    system.kernel().fsDisk().stats().sectorsWritten));

    // --- 3. Crash the operating system. ----------------------------
    try {
        machine.crash(sim::CrashCause::KernelPanic,
                      "panic: quickstart pulls the rug");
    } catch (const sim::CrashException &crash) {
        std::printf("CRASH: %s\n", crash.what());
    }

    // --- 4. Warm reboot: dump memory, restore metadata, fsck,
    //        boot, user-level data restore. -------------------------
    system.teardown();
    const auto report = system.recover();

    std::printf("warm reboot: %llu metadata blocks and %llu data "
                "pages restored from memory\n",
                static_cast<unsigned long long>(
                    report.metadataRestored),
                static_cast<unsigned long long>(
                    report.dataPagesRestored));

    // --- 5. The file survived. --------------------------------------
    auto rfd = system.vfs().open(shell, "/home/important.txt",
                                 os::OpenFlags::readOnly());
    if (!rfd.ok()) {
        std::puts("FAILED: file did not survive the crash");
        return 1;
    }
    std::vector<u8> back(message.size());
    rio::wl::tolerate(system.vfs().read(shell, rfd.value(), back));
    const std::string recovered(back.begin(), back.end());
    std::printf("recovered: \"%s\"\n", recovered.c_str());
    std::puts(recovered == message
                  ? "OK: write-through reliability, write-back "
                    "performance"
                  : "FAILED: contents differ");
    return recovered == message ? 0 : 1;
}
