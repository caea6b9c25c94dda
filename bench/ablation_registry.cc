/**
 * @file
 * Ablation A3: the registry is small and cheap (section 2.2 claims
 * "only 40 bytes of information are needed for each 8 KB file cache
 * page" and "the overhead of maintaining it is low").
 *
 * We report the space overhead of our 64-byte entries and measure
 * the time overhead of registry maintenance by running the same
 * delayed-write workload with Rio (registry + shadowing) and without
 * (plain delay-everything UFS with the update daemon disabled, i.e.
 * identical disk behaviour).
 */

#include <cstdio>
#include <memory>

#include "core/rio.hh"
#include "harness/hconfig.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"

using namespace rio;

namespace
{

double
runWorkload(bool rioMode, u64 seed, u64 ops, core::RioStats *stats)
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 32ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 32ull << 20;
    machineConfig.seed = seed;
    sim::Machine machine(machineConfig);

    os::KernelConfig config =
        os::systemPreset(rioMode ? os::SystemPreset::RioNoProtection
                                 : os::SystemPreset::UfsDelayAll);
    if (!rioMode) {
        // Same disk behaviour as Rio within the run: nothing flushes.
        config.updateIntervalNs = ~0ull;
    }

    std::unique_ptr<core::RioSystem> rio;
    if (rioMode) {
        core::RioOptions options;
        options.protection = os::ProtectionMode::Off;
        options.maintainChecksums = false;
        rio = std::make_unique<core::RioSystem>(machine, options);
    }
    os::Kernel kernel(machine, config);
    kernel.boot(rio.get(), true);

    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed;
    wl::MemTest memtest(kernel, memtestConfig);
    memtest.setup();

    const double start = machine.clock().seconds();
    for (u64 i = 0; i < ops; ++i)
        memtest.step();
    const double elapsed = machine.clock().seconds() - start;
    if (rio && stats)
        *stats = rio->stats();
    return elapsed;
}

} // namespace

int
main()
{
    harness::rejectUnknownKnobs();
    const u64 seed = harness::envU64("RIO_SEED", 1);
    const u64 ops = harness::envU64("RIO_ABL_OPS", 20000);

    sim::MachineConfig probe;
    probe.physMemBytes = 128ull << 20;
    probe.swapBytes = 128ull << 20;
    sim::Machine machine(probe);
    const auto &reg = machine.mem().region(sim::RegionKind::Registry);
    const auto &buf = machine.mem().region(sim::RegionKind::BufPool);
    const auto &ubc = machine.mem().region(sim::RegionKind::UbcPool);

    std::printf("A3: registry space and time overhead\n\n");
    std::printf("file cache: %llu MB (%llu pages)\n",
                static_cast<unsigned long long>(
                    (buf.size + ubc.size) >> 20),
                static_cast<unsigned long long>(buf.pages() +
                                                ubc.pages()));
    std::printf("registry:   %llu KB (64 B per page incl. shadow "
                "area) = %.2f%% of the cache\n",
                static_cast<unsigned long long>(reg.size >> 10),
                100.0 * static_cast<double>(reg.size) /
                    static_cast<double>(buf.size + ubc.size));
    std::printf("(paper: 40 B per 8 KB page = 0.49%%)\n\n");

    core::RioStats stats{};
    const double with = runWorkload(true, seed, ops, &stats);
    const double without = runWorkload(false, seed, ops, nullptr);
    std::printf("memTest, %llu operations:\n",
                static_cast<unsigned long long>(ops));
    std::printf("  without registry : %8.3f simulated s\n", without);
    std::printf("  with registry    : %8.3f simulated s  (+%.1f%%)\n",
                with, 100.0 * (with - without) / without);
    std::printf("  registry installs %llu, updates %llu, shadow "
                "copies %llu\n",
                static_cast<unsigned long long>(stats.registryInstalls),
                static_cast<unsigned long long>(stats.registryUpdates),
                static_cast<unsigned long long>(stats.shadowCopies));
    return 0;
}
