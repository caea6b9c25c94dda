/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths
 * (host-side performance, not simulated time). The crash campaign
 * executes millions of bus operations per run; these benchmarks
 * guard the simulator's throughput so paper-scale campaigns stay
 * cheap.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/rio.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "support/checksum.hh"
#include "support/rng.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

sim::MachineConfig
machineConfig()
{
    sim::MachineConfig c;
    c.physMemBytes = 16ull << 20;
    c.kernelHeapBytes = 4ull << 20;
    c.bufPoolBytes = 1ull << 20;
    c.diskBytes = 64ull << 20;
    c.swapBytes = 16ull << 20;
    return c;
}

} // namespace

static void
BM_BusScalarStore(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    machine.pageTable().initIdentity();
    const Addr heap =
        machine.mem().region(sim::RegionKind::KernelHeap).base;
    u64 i = 0;
    for (auto _ : state) {
        machine.bus().store64(heap + ((i * 64) & 0xffff), i);
        ++i;
    }
}
BENCHMARK(BM_BusScalarStore);

static void
BM_BusBulkCopy8K(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    machine.pageTable().initIdentity();
    const Addr heap =
        machine.mem().region(sim::RegionKind::KernelHeap).base;
    for (auto _ : state)
        machine.bus().copy(heap + 65536, heap, 8192);
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_BusBulkCopy8K);

/** The page checksum Rio recomputes on every legitimate write. */
static void
BM_Checksum32Page(benchmark::State &state)
{
    std::vector<u8> page(8192);
    support::Rng(1).fill(page);
    for (auto _ : state)
        benchmark::DoNotOptimize(support::checksum32(page));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_Checksum32Page);

/** The warm reboot's checksum over a whole 32 MiB memory dump. */
static void
BM_Checksum32Image(benchmark::State &state)
{
    std::vector<u8> image(32ull << 20);
    support::Rng(2).fill(image);
    for (auto _ : state)
        benchmark::DoNotOptimize(support::checksum32(image));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * (32ll << 20));
}
BENCHMARK(BM_Checksum32Image);

/** A checked store to the UBC through the TLB (Rio's mapKseg mode). */
static void
BM_KsegTranslatedStore(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    machine.pageTable().initIdentity();
    machine.cpu().setMapKsegThroughTlb(true);
    const Addr ubc =
        machine.mem().region(sim::RegionKind::UbcPool).base;
    u64 i = 0;
    for (auto _ : state) {
        machine.bus().store64(
            sim::physToKseg(ubc + ((i * 64) & 0xffff)), i);
        ++i;
    }
}
BENCHMARK(BM_KsegTranslatedStore);

static void
BM_DiskQueuedWrite(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    std::vector<u8> block(8192, 0x5a);
    SectorNo sector = 64;
    for (auto _ : state) {
        (void)machine.disk().queueWrite(sector, 16, block,
                                        machine.clock());
        sector = (sector + 16) % (machine.disk().numSectors() - 16);
        if ((sector & 0x3ff) == 0)
            machine.disk().drain(machine.clock());
    }
}
BENCHMARK(BM_DiskQueuedWrite);

static void
BM_SyscallWrite8K(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::RioNoProtection));
    core::RioOptions options;
    options.protection = os::ProtectionMode::Off;
    core::RioSystem rio(machine, options);
    kernel.boot(&rio, true);
    os::Process proc(1);
    auto fd = kernel.vfs().open(proc, "/bench",
                                os::OpenFlags::writeOnly());
    std::vector<u8> block(8192, 0x11);
    for (auto _ : state)
        rio::wl::tolerate(kernel.vfs().pwrite(proc, fd.value(), 0, block));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_SyscallWrite8K);

static void
BM_RegistryGuardedWrite(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::RioProtected));
    core::RioOptions options;
    options.protection = os::ProtectionMode::VmTlb;
    core::RioSystem rio(machine, options);
    kernel.boot(&rio, true);
    os::Process proc(1);
    auto fd = kernel.vfs().open(proc, "/bench",
                                os::OpenFlags::writeOnly());
    std::vector<u8> block(8192, 0x11);
    for (auto _ : state)
        rio::wl::tolerate(kernel.vfs().pwrite(proc, fd.value(), 0, block));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_RegistryGuardedWrite);

BENCHMARK_MAIN();
