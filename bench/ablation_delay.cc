/**
 * @file
 * Ablation A2: the delay-period tradeoff that motivates Rio
 * (section 1). Delayed-write systems pick a delay period (classically
 * 30 s): a longer delay lets more files die in memory (less disk
 * traffic) but risks more data on a crash. Per [Baker91]/[Hartman93],
 * 1/3 to 2/3 of newly written bytes live longer than 30 seconds, so
 * most writes must eventually reach the disk anyway.
 *
 * We sweep the update-daemon period on a create/delete workload whose
 * file lifetimes follow a Baker91-flavoured mix, and report, per
 * period: reliability-induced disk traffic, the fraction of written
 * bytes that died in memory, and the average bytes at risk. The
 * "never" row is Rio: zero reliability writes, zero loss (memory is
 * safe), which is the paper's whole point.
 */

#include <cstdio>
#include <vector>

#include "core/system.hh"
#include "harness/hconfig.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

struct SweepResult
{
    u64 sectorsWritten = 0;
    u64 bytesWritten = 0;
    double avgDirtyBytes = 0;
    u64 filesCreated = 0;
};

SweepResult
runSweep(SimNs updatePeriod, bool rioMode, u64 seed)
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 32ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 32ull << 20;
    machineConfig.seed = seed;
    sim::Machine machine(machineConfig);

    os::KernelConfig config =
        rioMode ? os::systemPreset(os::SystemPreset::RioNoProtection)
                : os::systemPreset(os::SystemPreset::UfsDelayAll);
    if (!rioMode)
        config.updateIntervalNs = updatePeriod;

    core::System system(machine, config);
    system.boot(true);
    os::Kernel &kernel = system.kernel();
    kernel.fsDisk().resetStats();

    auto &vfs = kernel.vfs();
    os::Process proc(1);
    support::Rng rng(seed);

    struct LiveFile
    {
        std::string path;
        SimNs dieAt;
    };
    std::vector<LiveFile> live;

    SweepResult result;
    const SimNs horizon = 300ull * sim::kNsPerSec;
    std::vector<u8> data(16 * 1024);
    double dirtySamples = 0;
    u64 samples = 0;
    SimNs nextSample = 0;
    u64 fileId = 0;

    while (machine.clock().now() < horizon) {
        // Create one file with a Baker91-ish lifetime: half die
        // young, the rest live well past 30 seconds.
        const double roll = rng.real();
        SimNs lifetime;
        if (roll < 0.5)
            lifetime = rng.between(1, 8) * sim::kNsPerSec;
        else if (roll < 0.75)
            lifetime = rng.between(40, 120) * sim::kNsPerSec;
        else
            lifetime = 3600ull * sim::kNsPerSec; // Effectively forever.

        const std::string path = "/f" + std::to_string(fileId++);
        wl::fillPattern(data, rng.next());
        auto fd = vfs.open(proc, path, os::OpenFlags::writeOnly());
        if (fd.ok()) {
            rio::wl::tolerate(vfs.write(proc, fd.value(), data));
            rio::wl::tolerate(vfs.close(proc, fd.value()));
            live.push_back({path, machine.clock().now() + lifetime});
            result.bytesWritten += data.size();
            ++result.filesCreated;
        }

        // Let simulated time pass between creations.
        machine.clock().advance(sim::kNsPerSec / 4);
        kernel.tick();

        // Delete expired files.
        for (std::size_t i = 0; i < live.size();) {
            if (live[i].dieAt <= machine.clock().now()) {
                rio::wl::tolerate(vfs.unlink(live[i].path));
                live[i] = live.back();
                live.pop_back();
            } else {
                ++i;
            }
        }

        if (machine.clock().now() >= nextSample) {
            nextSample = machine.clock().now() + sim::kNsPerSec;
            dirtySamples += static_cast<double>(
                kernel.ubc().dirtyPages() * sim::kPageSize);
            ++samples;
        }
    }

    result.sectorsWritten = kernel.fsDisk().stats().sectorsWritten;
    result.avgDirtyBytes = samples ? dirtySamples / samples : 0;
    return result;
}

} // namespace

int
main()
{
    harness::rejectUnknownKnobs();
    const u64 seed = harness::envU64("RIO_SEED", 1);

    std::printf("A2: write-back delay period vs disk traffic and "
                "data at risk\n");
    std::printf("(create/delete workload, Baker91-style lifetimes, "
                "300 simulated seconds)\n\n");
    std::printf("%-12s %14s %16s %16s\n", "delay", "disk MB written",
                "died in memory", "avg MB at risk");

    struct Row
    {
        const char *label;
        SimNs period;
        bool rio;
    };
    const Row rows[] = {
        {"1 s", 1ull * sim::kNsPerSec, false},
        {"5 s", 5ull * sim::kNsPerSec, false},
        {"30 s", 30ull * sim::kNsPerSec, false},
        {"60 s", 60ull * sim::kNsPerSec, false},
        {"120 s", 120ull * sim::kNsPerSec, false},
        {"never (Rio)", 0, true},
    };

    for (const Row &row : rows) {
        const SweepResult result = runSweep(row.period, row.rio, seed);
        const double diskMb =
            static_cast<double>(result.sectorsWritten) *
            sim::kSectorSize / 1e6;
        const double writtenMb =
            static_cast<double>(result.bytesWritten) / 1e6;
        const double died =
            writtenMb > 0 ? 100.0 * (1.0 - diskMb / writtenMb) : 0.0;
        std::printf("%-12s %14.1f %15.1f%% %16.2f\n", row.label,
                    diskMb, died < 0 ? 0.0 : died,
                    result.avgDirtyBytes / 1e6);
    }

    std::printf("\nReading: longer delays cut reliability-induced "
                "writes but leave more\ndirty data exposed; Rio "
                "eliminates the writes entirely while keeping the\n"
                "data safe (registry + warm reboot).\n");
    return 0;
}
