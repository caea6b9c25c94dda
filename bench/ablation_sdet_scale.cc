/**
 * @file
 * Ablation A6: Sdet concurrency scaling. SPEC SDM's methodology
 * sweeps the number of concurrent user scripts; the paper reports
 * the 5-script point in Table 2. Sweeping scripts shows *why* Rio's
 * advantage exists: synchronous metadata writes serialize every
 * script behind the disk head, so the write-through systems degrade
 * with added users while Rio (and MFS) scale like memory.
 */

#include <cstdio>
#include <memory>

#include "core/rio.hh"
#include "harness/hconfig.hh"
#include "harness/pool.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/sdet.hh"

using namespace rio;

namespace
{

double
run(os::SystemPreset preset, u32 scripts, u64 seed)
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 48ull << 20;
    machineConfig.diskBytes = 128ull << 20;
    machineConfig.swapBytes = 48ull << 20;
    machineConfig.seed = seed;
    sim::Machine machine(machineConfig);

    const os::KernelConfig config = os::systemPreset(preset);
    std::unique_ptr<core::RioSystem> rio;
    if (config.rio) {
        core::RioOptions options;
        options.protection = config.protection;
        rio = std::make_unique<core::RioSystem>(machine, options);
    }
    os::Kernel kernel(machine, config);
    kernel.boot(rio.get(), true);

    wl::SdetConfig sdet;
    sdet.seed = seed;
    sdet.scripts = scripts;
    sdet.iterations = 3;
    return wl::runSdet(kernel, sdet);
}

} // namespace

int
main()
{
    harness::rejectUnknownKnobs();
    const u64 seed = harness::envU64("RIO_SEED", 1);
    const u32 points[] = {1, 2, 5, 10, 15};

    std::printf("A6: Sdet runtime vs concurrent scripts "
                "(simulated seconds)\n\n");
    std::printf("%-28s", "scripts:");
    for (const u32 n : points)
        std::printf("%8u", n);
    std::printf("\n");

    struct RowSpec
    {
        const char *label;
        os::SystemPreset preset;
    };
    const RowSpec rows[] = {
        {"Memory File System", os::SystemPreset::MemoryFs},
        {"UFS delay-all", os::SystemPreset::UfsDelayAll},
        {"UFS default", os::SystemPreset::UfsDefault},
        {"UFS write-through/write",
         os::SystemPreset::UfsWriteThroughWrite},
        {"Rio with protection", os::SystemPreset::RioProtected},
    };

    // The 5x5 grid is 25 independent machines; fan it out and print
    // in row order afterwards.
    constexpr std::size_t kRows = sizeof(rows) / sizeof(rows[0]);
    double grid[kRows][5] = {};
    {
        harness::WorkerPool pool(harness::resolveJobs(
            harness::envU32("RIO_T1_JOBS", 0, 1)));
        harness::parallelFor(pool, kRows * 5, [&](u64 index) {
            const std::size_t row = index / 5, col = index % 5;
            grid[row][col] =
                run(rows[row].preset, points[col], seed);
        });
    }

    double rioAt[5] = {0}, wtwAt[5] = {0};
    for (std::size_t row = 0; row < kRows; ++row) {
        const RowSpec &rowSpec = rows[row];
        std::printf("%-28s", rowSpec.label);
        for (std::size_t i = 0; i < 5; ++i) {
            const double seconds = grid[row][i];
            std::printf("%8.1f", seconds);
            if (rowSpec.preset == os::SystemPreset::RioProtected)
                rioAt[i] = seconds;
            if (rowSpec.preset ==
                os::SystemPreset::UfsWriteThroughWrite)
                wtwAt[i] = seconds;
        }
        std::printf("\n");
    }

    std::printf("\nRio speedup vs write-through-on-write:\n%-28s",
                "");
    for (std::size_t i = 0; i < 5; ++i) {
        std::printf("%7.1fx",
                    rioAt[i] > 0 ? wtwAt[i] / rioAt[i] : 0.0);
    }
    std::printf("\n\nReading: every added script funnels more "
                "synchronous metadata writes\nthrough one disk head; "
                "Rio's advantage holds across load (the paper's\n"
                "Sdet gap, 910s vs 42s at 5 scripts, is the same "
                "effect at full scale).\n");
    return 0;
}
