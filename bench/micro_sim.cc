/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths
 * (host-side performance, not simulated time). The crash campaign
 * executes millions of bus operations per run; these benchmarks
 * guard the simulator's throughput so paper-scale campaigns stay
 * cheap.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/system.hh"
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

/** One page checksum: what Rio owes after a legitimate write. */
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
    core::System system(
        machine, os::systemPreset(os::SystemPreset::RioNoProtection));
    system.boot(true);
    os::Process proc(1);
    auto fd = system.vfs().open(proc, "/bench",
                                os::OpenFlags::writeOnly());
    std::vector<u8> block(8192, 0x11);
    for (auto _ : state)
        rio::wl::tolerate(system.vfs().pwrite(proc, fd.value(), 0, block));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_SyscallWrite8K);

static void
BM_RegistryGuardedWrite(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    core::System system(
        machine, os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(true);
    os::Process proc(1);
    auto fd = system.vfs().open(proc, "/bench",
                                os::OpenFlags::writeOnly());
    std::vector<u8> block(8192, 0x11);
    for (auto _ : state)
        rio::wl::tolerate(system.vfs().pwrite(proc, fd.value(), 0, block));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 8192);
}
BENCHMARK(BM_RegistryGuardedWrite);

/**
 * One legitimate write through Rio with checksums on: install (the
 * same identity, so the no-op path), beginWrite, one store32 and
 * the window's commit. Arg 0 picks the page — 0 a dirty metadata buffer (the
 * window runs on a shadow copy), 1 a UBC data page (no shadow); arg 1
 * the protection — 0 Off, 1 VmTlb.
 */
static void
BM_RioWriteWindow(benchmark::State &state)
{
    sim::Machine machine(machineConfig());
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    config.protection = state.range(1) ? os::ProtectionMode::VmTlb
                                       : os::ProtectionMode::Off;
    core::System system(machine, config, {.maintainChecksums = true});
    system.boot(true);
    os::Kernel &kernel = system.kernel();

    Addr page = 0;
    if (state.range(0) == 0) {
        auto &buf = kernel.bufferCache();
        auto ref = buf.bread(1, kernel.ufs().geometry().itStart);
        {
            os::BufferCache::WriteWindow window(buf, ref);
            window.store8(0, 1); // Dirty: later windows shadow it.
        }
        page = buf.pageAddr(ref);
    } else {
        os::Process proc(1);
        auto fd = system.vfs().open(proc, "/bench",
                                    os::OpenFlags::writeOnly());
        std::vector<u8> block(sim::kPageSize, 0x11);
        rio::wl::tolerate(system.vfs().write(proc, fd.value(), block));
        const InodeNo ino = system.vfs().stat("/bench").value().ino;
        page = kernel.ubc().pagePhys(kernel.ubc().getPage(1, ino, 0, false));
    }
    core::RioSystem &rio = *system.rio();
    const core::RegistryEntry entry = *rio.entryFor(page);
    os::CacheTag tag;
    tag.kind = entry.kind == core::RegistryLayout::kKindMetadata
                   ? os::CacheKind::Metadata
                   : os::CacheKind::Data;
    tag.dev = entry.dev;
    tag.ino = entry.ino;
    tag.offset = entry.offset;
    tag.diskBlock = entry.diskBlock;
    tag.size = entry.size;

    u32 i = 0;
    for (auto _ : state) {
        rio.install(page, tag);
        os::WriteWindow window = rio.beginWrite(page);
        machine.bus().store32(page + 64, ++i);
        std::move(window).commit(entry.size);
    }
}
BENCHMARK(BM_RioWriteWindow)
    ->ArgNames({"data", "vm"})
    ->ArgsProduct({{0, 1}, {0, 1}});

BENCHMARK_MAIN();
