/**
 * @file
 * Policy explorer: run a chosen workload on a chosen file-system
 * configuration and print where the time and the disk traffic went.
 * Useful for building intuition about Table 2.
 *
 * Usage: policy_explorer [system] [workload]
 *   system:   mfs | delay | advfs | ufs | wtclose | wtwrite |
 *             rio | rio-noprot        (default: all)
 *   workload: cprm | sdet | andrew    (default: cprm)
 *
 * Knob: RIO_PERF_MB, the cprm tree in MiB (see knobTable() in
 * harness/hconfig.cc).
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/rio.hh"
#include "harness/hconfig.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/andrew.hh"
#include "workload/cprm.hh"
#include "workload/sdet.hh"

using namespace rio;

namespace
{

struct NamedPreset
{
    const char *key;
    os::SystemPreset preset;
};

const NamedPreset kPresets[] = {
    {"mfs", os::SystemPreset::MemoryFs},
    {"delay", os::SystemPreset::UfsDelayAll},
    {"advfs", os::SystemPreset::AdvFsJournal},
    {"ufs", os::SystemPreset::UfsDefault},
    {"wtclose", os::SystemPreset::UfsWriteThroughClose},
    {"wtwrite", os::SystemPreset::UfsWriteThroughWrite},
    {"rio-noprot", os::SystemPreset::RioNoProtection},
    {"rio", os::SystemPreset::RioProtected},
};

void
explore(os::SystemPreset preset, const std::string &workload)
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 64ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 64ull << 20;
    sim::Machine machine(machineConfig);

    const os::KernelConfig kernelConfig = os::systemPreset(preset);
    std::unique_ptr<core::RioSystem> rio;
    if (kernelConfig.rio) {
        core::RioOptions options;
        options.protection = kernelConfig.protection;
        rio = std::make_unique<core::RioSystem>(machine, options);
    }
    os::Kernel kernel(machine, kernelConfig);
    kernel.boot(rio.get(), true);
    kernel.fsDisk().resetStats();

    double seconds = 0;
    if (workload == "sdet") {
        wl::SdetConfig config;
        seconds = wl::runSdet(kernel, config);
    } else if (workload == "andrew") {
        wl::AndrewConfig config;
        wl::Andrew andrew(kernel, config);
        const double start = machine.clock().seconds();
        while (andrew.step()) {
        }
        seconds = machine.clock().seconds() - start;
    } else {
        wl::CpRmConfig config;
        config.totalBytes = harness::envScaled("RIO_PERF_MB", 8, 1ull << 20);
        wl::CpRm cprm(kernel, config);
        cprm.buildSourceTree();
        kernel.fsDisk().resetStats();
        const wl::CpRmResult result = cprm.run();
        seconds = result.total();
    }

    const auto &disk = kernel.fsDisk().stats();
    const auto &buf = kernel.bufferCache().stats();
    const auto &ubc = kernel.ubc().stats();
    std::printf("%-34s %8.1f s | disk: %6.1f MB read %6.1f MB "
                "written | buf hit %4.1f%% | ubc hit %4.1f%%",
                os::systemPresetName(preset), seconds,
                static_cast<double>(disk.sectorsRead) *
                    sim::kSectorSize / 1e6,
                static_cast<double>(disk.sectorsWritten) *
                    sim::kSectorSize / 1e6,
                100.0 * static_cast<double>(buf.hits) /
                    static_cast<double>(buf.hits + buf.misses + 1),
                100.0 * static_cast<double>(ubc.hits) /
                    static_cast<double>(ubc.hits + ubc.misses + 1));
    if (rio) {
        std::printf(" | registry updates %llu",
                    static_cast<unsigned long long>(
                        rio->stats().registryUpdates));
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    harness::rejectUnknownKnobs();
    const std::string system = argc > 1 ? argv[1] : "all";
    const std::string workload = argc > 2 ? argv[2] : "cprm";

    std::printf("workload: %s\n", workload.c_str());
    bool matched = false;
    for (const NamedPreset &entry : kPresets) {
        if (system == "all" || system == entry.key) {
            explore(entry.preset, workload);
            matched = true;
        }
    }
    if (!matched) {
        std::fprintf(stderr,
                     "unknown system '%s' (try: mfs delay advfs ufs "
                     "wtclose wtwrite rio rio-noprot all)\n",
                     system.c_str());
        return 2;
    }
    return 0;
}
