/**
 * @file
 * Tests for MemBus address translation (TLB hits served inline, the
 * checked-store fast path), the VA-space bounds fix in
 * MemBus::translate, and the per-access accounting of bulk bus
 * operations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "harness/bench.hh"
#include "harness/hconfig.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workload/modelfs.hh"
#include "workload/serverclient.hh"

using namespace rio;
using namespace rio::sim;

namespace
{

MachineConfig
tinyConfig()
{
    MachineConfig config;
    config.physMemBytes = 8ull << 20;
    config.kernelTextBytes = 1ull << 20;
    config.kernelHeapBytes = 2ull << 20;
    config.bufPoolBytes = 512ull << 10;
    config.diskBytes = 16ull << 20;
    config.swapBytes = 8ull << 20;
    return config;
}

Addr
heapBase(Machine &machine)
{
    return machine.mem().region(RegionKind::KernelHeap).base;
}

/** What translation could perturb: the clock and the bus and TLB
 * counts, plus the audit that proves the file system is intact. */
struct BusSummary
{
    SimNs clock;
    u64 loads, stores, hits, misses, damaged, readMismatches;
};

/**
 * The file-server op stream on a protected Rio kernel at seed 1: 64
 * mailboxes and 256 documents, every file written once first, then
 * 2,000 zipfian (theta 0.99) requests, half mail deliveries, 30%
 * document saves and 20% reads.
 */
BusSummary
serveFiles()
{
    constexpr u64 kSeed = 1;
    constexpr u32 kMailboxes = 64;
    constexpr u32 kDocs = 256;
    constexpr u64 kOps = 2000;
    Machine machine(harness::perfMachineConfig(kSeed));
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(true);
    os::Kernel &kernel = system.kernel();

    wl::ServerClient::Config clientConfig;
    clientConfig.mailboxes = kMailboxes;
    clientConfig.docs = kDocs;
    clientConfig.mailboxRotateBytes = 256 * 1024;
    wl::ServerClient client(clientConfig, kSeed * 2654435761u + 7);
    client.createDirs(kernel);
    wl::ModelFs model;
    for (u64 doc = 0; doc < kDocs; ++doc)
        client.overwriteDoc(kernel, model, doc);
    for (u64 box = 0; box < kMailboxes; ++box)
        client.deliverMail(kernel, model, box);

    support::Rng pick(kSeed * 0x9e3779b97f4a7c15ull + 1);
    const harness::Zipfian zipfMail(kMailboxes, 0.99);
    const harness::Zipfian zipfDocs(kDocs, 0.99);
    for (u64 i = 0; i < kOps; ++i) {
        const double roll = pick.real();
        if (roll < 0.5)
            client.deliverMail(kernel, model, zipfMail.sample(pick));
        else if (roll < 0.8)
            client.overwriteDoc(kernel, model, zipfDocs.sample(pick));
        else
            client.readDoc(kernel, model, zipfDocs.sample(pick));
    }
    return BusSummary{machine.clock().now(),
                      machine.bus().stats().loads,
                      machine.bus().stats().stores,
                      machine.tlb().hits(),
                      machine.tlb().misses(),
                      client.audit(kernel, model).damaged,
                      client.readMismatches()};
}

} // namespace

TEST(TranslationCache, RemapInvalidatesCachedTranslation)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    MemBus &bus = machine.bus();

    const Addr va = heapBase(machine);
    const u64 vpn = va >> kPageShift;
    bus.store64(va, 0x1111); // Populates the TLB.
    bus.store64(va + 8, 0x2222);

    // Remap the page to invalid and invalidate the TLB — the very
    // next store must fault, not hit a stale cached translation.
    Pte pte = machine.pageTable().read(vpn);
    pte.valid = false;
    machine.pageTable().write(vpn, pte);
    machine.tlb().invalidatePage(vpn);
    EXPECT_THROW(bus.store64(va + 16, 0x3333), CrashException);
}

TEST(TranslationCache, ProtectionChangeInvalidates)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    MemBus &bus = machine.bus();

    const Addr va = heapBase(machine);
    const u64 vpn = va >> kPageShift;
    bus.store64(va, 0xabcd);

    machine.pageTable().setWritable(vpn, false);
    machine.tlb().invalidatePage(vpn);
    EXPECT_THROW(bus.store64(va + 8, 0xef01), CrashException);
    // Reads must still go through.
    EXPECT_EQ(bus.load64(va), 0xabcdu);

    machine.pageTable().setWritable(vpn, true);
    machine.tlb().invalidatePage(vpn);
    bus.store64(va + 8, 0xef01);
    EXPECT_EQ(bus.load64(va + 8), 0xef01u);
}

TEST(TranslationCache, FlushInvalidates)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    MemBus &bus = machine.bus();

    const Addr va = heapBase(machine);
    const u64 vpn = va >> kPageShift;
    bus.store64(va, 1);

    Pte pte = machine.pageTable().read(vpn);
    pte.valid = false;
    machine.pageTable().write(vpn, pte);
    machine.tlb().flushAll();
    EXPECT_THROW(bus.load64(va), CrashException);
}

/**
 * How a translation is served must be invisible to the simulation:
 * the clock, bus and TLB counts, faults and loaded values of a
 * synthetic mixed bus stream and of a whole kernel serving the
 * file-server op stream are pinned. The constants are also what every
 * translation taken through the out-of-line walk gives.
 */
TEST(TranslationCache, SummariesArePinned)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    MemBus &bus = machine.bus();
    const Addr heap = heapBase(machine);
    const u64 span = 64 * kPageSize;
    support::Rng rng(99);
    u64 checksum = 0;
    u64 faults = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr va = heap + (rng.below(span) & ~7ull);
        switch (rng.below(6)) {
          case 0: bus.store64(va, rng.next()); break;
          case 1: checksum ^= bus.load64(va); break;
          case 2: {
              std::vector<u8> buf(rng.between(1, 3 * kPageSize));
              rng.fill(buf);
              bus.writeBytes(va, buf);
              break;
          }
          case 3: {
              std::vector<u8> buf(rng.between(1, 3 * kPageSize));
              bus.readBytes(va, buf);
              checksum ^= buf[0];
              break;
          }
          case 4: {
              const u64 vpn = va >> kPageShift;
              const bool writable = rng.chance(0.7);
              machine.pageTable().setWritable(vpn, writable);
              machine.tlb().invalidatePage(vpn);
              try {
                  bus.store64(va, 7);
              } catch (const CrashException &) {
                  ++faults;
              }
              machine.pageTable().setWritable(vpn, true);
              machine.tlb().invalidatePage(vpn);
              break;
          }
          case 5: machine.tlb().flushAll(); break;
        }
    }
    EXPECT_EQ(machine.clock().now(), 248892604u);
    EXPECT_EQ(bus.stats().loads, 11749u);
    EXPECT_EQ(bus.stats().stores, 14843u);
    EXPECT_EQ(machine.tlb().hits(), 2178u);
    EXPECT_EQ(machine.tlb().misses(), 24414u);
    EXPECT_EQ(faults, 968u);
    EXPECT_EQ(checksum, 0xbae6739e75202f88ull);

    const BusSummary served = serveFiles();
    EXPECT_EQ(served.clock, 1063029272u);
    EXPECT_EQ(served.loads, 2456679u);
    EXPECT_EQ(served.stores, 691694u);
    EXPECT_EQ(served.hits, 3069832u);
    EXPECT_EQ(served.misses, 78541u);
    EXPECT_EQ(served.damaged, 0u);
    EXPECT_EQ(served.readMismatches, 0u);
}

/** Regression: a VA above physical memory but inside the page
 * table's VA space must translate, not machine-check. The old code
 * bounded virtual addresses against physical memory size. */
TEST(MemBusBounds, HighVirtualAddressWithinVaSpace)
{
    MachineConfig config = tinyConfig();
    const u64 physPages = config.physMemBytes >> kPageShift;
    config.vaSpacePages = physPages + 16;
    Machine machine(config);
    machine.pageTable().initIdentity();
    EXPECT_EQ(machine.pageTable().numPages(), physPages + 16);
    EXPECT_EQ(machine.pageTable().physPages(), physPages);

    // Map a high virtual page at a valid physical frame.
    const u64 highVpn = physPages + 3;
    const u64 frame = heapBase(machine) >> kPageShift;
    Pte pte;
    pte.valid = true;
    pte.writable = true;
    pte.pfn = frame;
    machine.pageTable().write(highVpn, pte);

    MemBus &bus = machine.bus();
    const Addr va = highVpn << kPageShift;
    ASSERT_GE(va, machine.mem().size()); // Beyond physical memory.
    bus.store64(va + 24, 0xfeed);        // Old code machine-checked.
    EXPECT_EQ(bus.load64(va + 24), 0xfeedu);
    // Aliases the same frame as the identity mapping.
    EXPECT_EQ(bus.load64((frame << kPageShift) + 24), 0xfeedu);

    // Beyond the VA space still machine-checks.
    const Addr beyond = machine.pageTable().numPages() << kPageShift;
    EXPECT_THROW(bus.load64(beyond), CrashException);
    // And unmapped high pages fault as invalid.
    EXPECT_THROW(bus.load64((highVpn + 1) << kPageShift),
                 CrashException);
}

TEST(MemBusBounds, DefaultVaSpaceMatchesPhysicalMemory)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    EXPECT_EQ(machine.pageTable().numPages(),
              machine.mem().numPages());
    EXPECT_THROW(machine.bus().load64(machine.mem().size()),
                 CrashException);
}

/** Fault messages are part of the campaign JSONL; keep the format. */
TEST(MemBusBounds, FaultMessageFormat)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    try {
        machine.bus().load64(0x7fff0000'00000000ull);
        FAIL() << "expected a machine check";
    } catch (const CrashException &crash) {
        // CrashException prepends the cause name to the message.
        EXPECT_STREQ(crash.what(),
                     "machine check: illegal address "
                     "0x7fff000000000000");
    }
    const u64 vpn = heapBase(machine) >> kPageShift;
    machine.pageTable().setWritable(vpn, false);
    machine.tlb().invalidatePage(vpn);
    try {
        machine.bus().store64(vpn << kPageShift, 1);
        FAIL() << "expected a protection fault";
    } catch (const CrashException &crash) {
        EXPECT_NE(std::string(crash.what()).find(
                      "write to protected address 0x"),
                  std::string::npos);
    }
}

TEST(BusAccounting, BulkOpsCountPerPageChunk)
{
    Machine machine(tinyConfig());
    machine.pageTable().initIdentity();
    MemBus &bus = machine.bus();
    const Addr heap = heapBase(machine);

    // 3 pages, page-aligned: 3 store accesses.
    std::vector<u8> buf(3 * kPageSize, 0x5a);
    bus.resetStats();
    bus.writeBytes(heap, buf);
    EXPECT_EQ(bus.stats().stores, 3u);
    EXPECT_EQ(bus.stats().bytesCopied, 3 * kPageSize);

    // Unaligned start: spans one extra page.
    bus.resetStats();
    bus.writeBytes(heap + 100, buf);
    EXPECT_EQ(bus.stats().stores, 4u);

    // Reads mirror writes.
    bus.resetStats();
    bus.readBytes(heap, buf);
    EXPECT_EQ(bus.stats().loads, 3u);

    // Copy counts one load + one store per chunk.
    bus.resetStats();
    bus.copy(heap + 8 * kPageSize, heap, 2 * kPageSize);
    EXPECT_EQ(bus.stats().loads, 2u);
    EXPECT_EQ(bus.stats().stores, 2u);

    // set() is store-only.
    bus.resetStats();
    bus.set(heap, 0xcc, kPageSize / 2);
    EXPECT_EQ(bus.stats().stores, 1u);

    // A bulk op within one page counts like a scalar access.
    bus.resetStats();
    std::vector<u8> small(16);
    bus.readBytes(heap, small);
    bus.writeBytes(heap, small);
    EXPECT_EQ(bus.stats().loads, 1u);
    EXPECT_EQ(bus.stats().stores, 1u);
}
