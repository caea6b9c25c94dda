/**
 * @file
 * Unit tests for the simulated hardware: physical memory regions,
 * page table, TLB, the memory bus (translation, KSEG semantics,
 * protection, machine checks), the disk model, and the machine's
 * crash/reset behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "sim/machine.hh"

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

} // namespace

TEST(PhysMem, RegionsTileWithoutOverlap)
{
    PhysMem mem(tinyConfig());
    Addr cursor = 0;
    for (const Region &region : mem.regions()) {
        EXPECT_EQ(region.base, cursor);
        EXPECT_EQ(region.size % kPageSize, 0u);
        cursor = region.end();
    }
    EXPECT_LE(cursor, mem.size());
}

TEST(PhysMem, RegistrySizedForFileCachePages)
{
    PhysMem mem(tinyConfig());
    const auto &reg = mem.region(RegionKind::Registry);
    const auto &buf = mem.region(RegionKind::BufPool);
    const auto &ubc = mem.region(RegionKind::UbcPool);
    // 64 bytes per file-cache page plus the 4 shadow pages.
    EXPECT_GE(reg.size,
              (buf.pages() + ubc.pages()) * 64 + 4 * kPageSize);
}

TEST(PhysMem, RegionForFindsOwner)
{
    PhysMem mem(tinyConfig());
    const auto &heap = mem.region(RegionKind::KernelHeap);
    const Region *found = mem.regionFor(heap.base + 100);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->kind, RegionKind::KernelHeap);
    EXPECT_EQ(mem.regionFor(mem.size() + 10), nullptr);
}

TEST(PhysMem, ZeroAllClears)
{
    PhysMem mem(tinyConfig());
    mem.raw()[1000] = 0x42;
    mem.zeroAll();
    EXPECT_EQ(mem.raw()[1000], 0);
}

TEST(Pte, EncodeDecodeRoundTrip)
{
    for (const bool valid : {false, true}) {
        for (const bool writable : {false, true}) {
            for (const u64 pfn : {0ull, 1ull, 1023ull, 65535ull}) {
                Pte pte;
                pte.valid = valid;
                pte.writable = writable;
                pte.pfn = pfn;
                const Pte back = Pte::decode(pte.encode());
                EXPECT_EQ(back.valid, valid);
                EXPECT_EQ(back.writable, writable);
                EXPECT_EQ(back.pfn, pfn);
            }
        }
    }
}

TEST(PageTable, IdentityMapsAllButPageZero)
{
    PhysMem mem(tinyConfig());
    PageTable pt(mem);
    pt.initIdentity();
    EXPECT_FALSE(pt.read(0).valid);
    for (u64 vpn = 1; vpn < pt.numPages(); vpn += 37) {
        const Pte pte = pt.read(vpn);
        EXPECT_TRUE(pte.valid);
        EXPECT_TRUE(pte.writable);
        EXPECT_EQ(pte.pfn, vpn);
    }
}

TEST(PageTable, LivesInSimulatedMemory)
{
    PhysMem mem(tinyConfig());
    PageTable pt(mem);
    pt.initIdentity();
    // Corrupt a PTE through raw memory; the walker must see it.
    const auto &ptRegion = mem.region(RegionKind::PageTables);
    const u64 vpn = 5;
    u64 word;
    std::memcpy(&word, mem.raw() + ptRegion.base + vpn * 8, 8);
    word &= ~Pte::kValidBit;
    std::memcpy(mem.raw() + ptRegion.base + vpn * 8, &word, 8);
    EXPECT_FALSE(pt.read(vpn).valid);
}

TEST(Tlb, CachesAndInvalidates)
{
    Tlb tlb;
    Pte pte;
    pte.valid = true;
    pte.pfn = 7;
    EXPECT_EQ(tlb.lookup(7), nullptr);
    tlb.fill(7, pte);
    ASSERT_NE(tlb.lookup(7), nullptr);
    EXPECT_EQ(tlb.lookup(7)->pfn, 7u);
    tlb.invalidatePage(7);
    EXPECT_EQ(tlb.lookup(7), nullptr);
}

TEST(Tlb, FlushAllDropsEverything)
{
    Tlb tlb;
    Pte pte;
    pte.valid = true;
    for (u64 vpn = 0; vpn < 50; ++vpn)
        tlb.fill(vpn, pte);
    tlb.flushAll();
    for (u64 vpn = 0; vpn < 50; ++vpn)
        EXPECT_EQ(tlb.lookup(vpn), nullptr);
}

class MemBusTest : public ::testing::Test
{
  protected:
    MemBusTest() : machine_(tinyConfig())
    {
        machine_.pageTable().initIdentity();
    }

    Machine machine_;
};

TEST_F(MemBusTest, ScalarRoundTripAllWidths)
{
    auto &bus = machine_.bus();
    const Addr base = machine_.mem().region(RegionKind::KernelHeap).base;
    bus.store8(base + 0, 0xab);
    bus.store16(base + 2, 0xcdef);
    bus.store32(base + 4, 0x12345678);
    bus.store64(base + 8, 0x0123456789abcdefull);
    EXPECT_EQ(bus.load8(base + 0), 0xab);
    EXPECT_EQ(bus.load16(base + 2), 0xcdef);
    EXPECT_EQ(bus.load32(base + 4), 0x12345678u);
    EXPECT_EQ(bus.load64(base + 8), 0x0123456789abcdefull);
}

TEST_F(MemBusTest, MachineCheckOnOutOfRangeAddress)
{
    EXPECT_THROW(machine_.bus().load64(machine_.mem().size() + 64),
                 CrashException);
    EXPECT_EQ(machine_.bus().stats().machineChecks, 1u);
}

TEST_F(MemBusTest, MachineCheckOnNullPage)
{
    // Page 0 is never mapped: low wild pointers trap.
    EXPECT_THROW(machine_.bus().store64(0x100, 1), CrashException);
}

TEST_F(MemBusTest, MachineCheckOnWildPointer)
{
    EXPECT_THROW(machine_.bus().store64(0x7fffabcdeff8ull, 1),
                 CrashException);
}

TEST_F(MemBusTest, KsegBypassesTlbByDefault)
{
    auto &bus = machine_.bus();
    const Addr pa = machine_.mem().region(RegionKind::UbcPool).base;
    // Protect the page; a KSEG store must bypass that protection
    // while the CPU does not map KSEG through the TLB.
    machine_.pageTable().setWritable(pa >> kPageShift, false);
    EXPECT_NO_THROW(bus.store64(physToKseg(pa), 0x77));
    EXPECT_EQ(bus.load64(physToKseg(pa)), 0x77u);
}

TEST_F(MemBusTest, AboxBitForcesKsegThroughProtection)
{
    auto &bus = machine_.bus();
    const Addr pa = machine_.mem().region(RegionKind::UbcPool).base;
    machine_.pageTable().setWritable(pa >> kPageShift, false);
    machine_.tlb().flushAll();
    machine_.cpu().setMapKsegThroughTlb(true);
    EXPECT_THROW(bus.store64(physToKseg(pa), 0x77), CrashException);
    EXPECT_EQ(bus.stats().protectionFaults, 1u);
    // Reads are still fine.
    EXPECT_NO_THROW(bus.load64(physToKseg(pa)));
}

TEST_F(MemBusTest, ProtectionFaultOnReadOnlyPage)
{
    auto &bus = machine_.bus();
    const Addr pa = machine_.mem().region(RegionKind::BufPool).base;
    machine_.pageTable().setWritable(pa >> kPageShift, false);
    machine_.tlb().flushAll();
    EXPECT_THROW(bus.store8(pa, 1), CrashException);
    machine_.pageTable().setWritable(pa >> kPageShift, true);
    machine_.tlb().invalidatePage(pa >> kPageShift);
    EXPECT_NO_THROW(bus.store8(pa, 1));
}

TEST_F(MemBusTest, StaleTlbEntryHonoursCachedProtection)
{
    auto &bus = machine_.bus();
    const Addr pa = machine_.mem().region(RegionKind::BufPool).base;
    bus.store8(pa, 1); // Fill the TLB with a writable entry.
    machine_.pageTable().setWritable(pa >> kPageShift, false);
    // Without invalidation the stale TLB entry still allows writes —
    // which is exactly why protection changes must shoot down.
    EXPECT_NO_THROW(bus.store8(pa, 2));
    machine_.tlb().invalidatePage(pa >> kPageShift);
    EXPECT_THROW(bus.store8(pa, 3), CrashException);
}

TEST_F(MemBusTest, CorruptedPteRedirectsTranslation)
{
    auto &bus = machine_.bus();
    const Addr heap = machine_.mem().region(RegionKind::KernelHeap).base;
    const Addr text = machine_.mem().region(RegionKind::KernelText).base;
    Pte pte = machine_.pageTable().read(heap >> kPageShift);
    pte.pfn = text >> kPageShift; // Redirect heap page to text page.
    machine_.pageTable().write(heap >> kPageShift, pte);
    machine_.tlb().flushAll();
    bus.store8(heap + 5, 0x99);
    EXPECT_EQ(machine_.mem().raw()[text + 5], 0x99);
}

TEST_F(MemBusTest, BulkOpsCrossPages)
{
    auto &bus = machine_.bus();
    const Addr base =
        machine_.mem().region(RegionKind::KernelHeap).base + kPageSize -
        100;
    std::vector<u8> out(300), in(300);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<u8>(i);
    bus.writeBytes(base, in);
    bus.readBytes(base, out);
    EXPECT_EQ(in, out);
}

TEST_F(MemBusTest, CopyMovesBytesAndChargesTime)
{
    auto &bus = machine_.bus();
    const Addr heap = machine_.mem().region(RegionKind::KernelHeap).base;
    std::vector<u8> data(1000, 0x3c);
    bus.writeBytes(heap, data);
    const SimNs before = machine_.clock().now();
    bus.copy(heap + 20000, heap, 1000);
    EXPECT_GT(machine_.clock().now(), before);
    std::vector<u8> out(1000);
    bus.readBytes(heap + 20000, out);
    EXPECT_EQ(out, data);
}

namespace
{

/** Minimal policy for code-patching tests. */
class TestPolicy : public ProtectionPolicy
{
  public:
    bool
    patchCheckBlocksStore(Addr pa) const override
    {
        return pa >= blockFrom && pa < blockTo;
    }

    void onProtectionStop(Addr) override { ++stops; }

    Addr blockFrom = 0;
    Addr blockTo = 0;
    int stops = 0;
};

} // namespace

TEST_F(MemBusTest, CodePatchingBlocksConfiguredRange)
{
    auto &bus = machine_.bus();
    TestPolicy policy;
    const auto &buf = machine_.mem().region(RegionKind::BufPool);
    policy.blockFrom = buf.base;
    policy.blockTo = buf.end();
    bus.setPolicy(&policy);
    bus.setCodePatching(true);

    EXPECT_THROW(bus.store64(buf.base + 64, 1), CrashException);
    EXPECT_EQ(policy.stops, 1);
    // Outside the range, stores pass.
    const Addr heap = machine_.mem().region(RegionKind::KernelHeap).base;
    EXPECT_NO_THROW(bus.store64(heap, 1));
    // KSEG form hits the same physical check.
    EXPECT_THROW(bus.store64(physToKseg(buf.base + 128), 1),
                 CrashException);
}

TEST(DiskTest, ReadBackWhatWasWritten)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(1));
    SimClock clock;
    std::vector<u8> in(kSectorSize * 4, 0x5a), out(kSectorSize * 4);
    EXPECT_EQ(disk.write(8, 4, in, clock), DiskStatus::Ok);
    EXPECT_EQ(disk.read(8, 4, out, clock), DiskStatus::Ok);
    EXPECT_EQ(in, out);
    EXPECT_GT(clock.now(), 0u);
}

TEST(DiskTest, QueuedWriteAppliesAfterCompletion)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(2));
    SimClock clock;
    std::vector<u8> in(kSectorSize, 0x77), out(kSectorSize, 0);
    EXPECT_EQ(disk.queueWrite(100, 1, in, clock), DiskStatus::Ok);
    EXPECT_EQ(disk.queueDepth(), 1u);
    disk.drain(clock);
    EXPECT_EQ(disk.queueDepth(), 0u);
    std::memcpy(out.data(), disk.peekSector(100).data(), kSectorSize);
    EXPECT_EQ(out, in);
}

TEST(DiskTest, ReadWaitsForOverlappingQueuedWrite)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(3));
    SimClock clock;
    std::vector<u8> in(kSectorSize, 0x11), out(kSectorSize, 0);
    EXPECT_EQ(disk.queueWrite(50, 1, in, clock), DiskStatus::Ok);
    EXPECT_EQ(disk.read(50, 1, out, clock), // Observes queued data.
              DiskStatus::Ok);
    EXPECT_EQ(out, in);
}

TEST(DiskTest, CrashDropsQueuedWrites)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(4));
    SimClock clock;
    std::vector<u8> in(kSectorSize, 0x22);
    // Queue several writes; crash immediately: none had time to
    // complete fully, later ones are entirely lost.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(disk.queueWrite(200 + 10 * i, 1, in, clock),
                  DiskStatus::Ok);
    const u64 lost = disk.crashDropQueue(clock.now());
    EXPECT_EQ(lost, 5u);
    EXPECT_EQ(disk.queueDepth(), 0u);
    // The last queued target sector was never reached.
    EXPECT_NE(disk.peekSector(240)[0], 0x22);
}

TEST(DiskTest, CrashAppliesCompletedWrites)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(5));
    SimClock clock;
    std::vector<u8> in(kSectorSize, 0x33);
    EXPECT_EQ(disk.queueWrite(300, 1, in, clock), DiskStatus::Ok);
    clock.advance(3600ull * kNsPerSec); // Plenty of time to land.
    disk.crashDropQueue(clock.now());
    EXPECT_EQ(disk.peekSector(300)[0], 0x33);
}

TEST(DiskTest, TornSingleSectorWriteLeavesExactlyOneGarbageSector)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(9));
    SimClock clock;
    std::vector<u8> in(kSectorSize, 0x22);
    EXPECT_EQ(disk.queueWrite(400, 1, in, clock), DiskStatus::Ok);
    // Crash mid-transfer: the service time of any transfer is far
    // beyond 1 ns, so the write started but could not complete.
    const u64 lost = disk.crashDropQueue(clock.now() + 1);
    EXPECT_EQ(lost, 1u);
    // The target sector is garbage — neither the payload (the write
    // must not land whole) nor untouched zeros.
    const auto torn = disk.peekSector(400);
    EXPECT_NE(torn[0], 0x22);
    bool allZero = true, allPayload = true;
    for (u64 i = 0; i < kSectorSize; ++i) {
        allZero = allZero && torn[i] == 0;
        allPayload = allPayload && torn[i] == 0x22;
    }
    EXPECT_FALSE(allZero);
    EXPECT_FALSE(allPayload);
    // Exactly one sector of damage: the neighbours are untouched.
    EXPECT_EQ(disk.peekSector(399)[0], 0);
    EXPECT_EQ(disk.peekSector(401)[0], 0);
}

TEST(DiskTest, TornWriteSpanningDeviceEndClamps)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(10));
    SimClock clock;
    const SectorNo last = disk.numSectors() - 1;
    std::vector<u8> in(kSectorSize * 4, 0x44);
    // Asks for four sectors, two of which are past the device end:
    // the request clamps instead of scribbling past numSectors().
    EXPECT_EQ(disk.queueWrite(last - 1, 4, in, clock),
              DiskStatus::Ok);
    EXPECT_GE(disk.stats().clampedWrites, 1u);
    disk.crashDropQueue(clock.now() + 1);
    // Whatever tore, it tore inside the device: the last two sectors
    // hold either zeros, payload, or garbage — reading them must
    // stay in bounds (ASAN-clean) and the neighbour below the write
    // is untouched.
    (void)disk.peekSector(last);
    EXPECT_EQ(disk.peekSector(last - 2)[0], 0);

    // A fully out-of-range write is dropped outright.
    Disk disk2(1 << 20, costs, support::Rng(11));
    EXPECT_EQ(disk2.queueWrite(disk2.numSectors() + 8, 2, in, clock),
              DiskStatus::Ok);
    EXPECT_EQ(disk2.queueDepth(), 0u);
    EXPECT_GE(disk2.stats().clampedWrites, 1u);
    EXPECT_EQ(disk2.crashDropQueue(clock.now() + 1), 0u);
}

// The store skips host pages that would stay zero (support::
// ZeroedBytes::copyIn); none of these may tell the difference.

namespace
{

/** Every byte of @p disk, host-side. */
std::vector<u8>
diskBytes(const Disk &disk)
{
    std::vector<u8> out;
    for (SectorNo s = 0; s < disk.numSectors(); ++s) {
        const auto sector = disk.peekSector(s);
        out.insert(out.end(), sector.begin(), sector.end());
    }
    return out;
}

} // namespace

TEST(DiskTest, ZeroWriteOverDataReadsBackZero)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(12));
    SimClock clock;
    // Sectors 5..36 straddle host pages at both ends.
    std::vector<u8> data(kSectorSize * 32, 0x5a);
    std::vector<u8> zeros(kSectorSize * 32, 0), out(kSectorSize * 32);
    EXPECT_EQ(disk.write(5, 32, data, clock), DiskStatus::Ok);
    EXPECT_EQ(disk.write(5, 32, zeros, clock), DiskStatus::Ok);
    EXPECT_EQ(disk.read(5, 32, out, clock), DiskStatus::Ok);
    EXPECT_EQ(out, zeros);

    // The queued path, over a partial page.
    EXPECT_EQ(disk.write(40, 3, data, clock), DiskStatus::Ok);
    EXPECT_EQ(disk.queueWrite(41, 1, zeros, clock), DiskStatus::Ok);
    disk.drain(clock);
    EXPECT_EQ(disk.peekSector(40)[0], 0x5a);
    EXPECT_EQ(disk.peekSector(41)[kSectorSize - 1], 0);
    EXPECT_EQ(disk.peekSector(42)[0], 0x5a);
}

TEST(DiskTest, SparseWritesReadBackAsPlainCopies)
{
    CostModel costs;
    // Small, so writes keep landing on each other's sectors.
    Disk disk(256 << 10, costs, support::Rng(13));
    SimClock clock;
    std::vector<u8> model(256 << 10, 0);
    support::Rng rng(14);
    for (int op = 0; op < 400; ++op) {
        const u64 count = 1 + rng.below(24);
        const SectorNo start = rng.below(disk.numSectors() - count);
        // Zero, filled, or a per-sector mix of the two.
        const u64 kind = rng.below(3);
        std::vector<u8> data(count * kSectorSize, 0);
        for (u64 s = 0; s < count; ++s) {
            if (kind == 1 || (kind == 2 && rng.below(2) == 0))
                std::fill_n(data.begin() + s * kSectorSize, kSectorSize,
                            static_cast<u8>(1 + rng.below(255)));
        }
        const DiskStatus status =
            rng.below(2) == 0 ? disk.write(start, count, data, clock)
                              : disk.queueWrite(start, count, data, clock);
        ASSERT_EQ(status, DiskStatus::Ok);
        std::copy(data.begin(), data.end(),
                  model.begin() + start * kSectorSize);
    }
    disk.drain(clock);
    EXPECT_EQ(diskBytes(disk), model);
}

TEST(DiskTest, TornZeroWriteClearsItsWholeSectorPrefix)
{
    CostModel costs;
    Disk disk(1 << 20, costs, support::Rng(15));
    SimClock clock;
    constexpr u64 kCount = 64;
    std::vector<u8> data(kSectorSize * kCount, 0x5a);
    std::vector<u8> zeros(kSectorSize * kCount, 0);
    EXPECT_EQ(disk.write(3, kCount, data, clock), DiskStatus::Ok);
    // Nothing queued, so the zero write starts now; crash halfway.
    const SimNs before = disk.stats().busyNs;
    EXPECT_EQ(disk.queueWrite(3, kCount, zeros, clock), DiskStatus::Ok);
    const SimNs service = disk.stats().busyNs - before;
    EXPECT_EQ(disk.crashDropQueue(clock.now() + service / 2), 1u);

    auto sectorIs = [&](SectorNo s, u8 fill) {
        const auto bytes = disk.peekSector(s);
        return std::all_of(bytes.begin(), bytes.end(),
                           [fill](u8 b) { return b == fill; });
    };
    SectorNo torn = 3;
    while (torn < 3 + kCount && sectorIs(torn, 0))
        ++torn;
    // About half landed as zeros, then one garbage sector, then the
    // old data the crash kept.
    EXPECT_GE(torn, 3 + kCount / 4);
    EXPECT_LE(torn, 3 + 3 * kCount / 4);
    EXPECT_FALSE(sectorIs(torn, 0x5a));
    for (SectorNo s = torn + 1; s < 3 + kCount; ++s)
        EXPECT_TRUE(sectorIs(s, 0x5a)) << "sector " << s;
}

TEST(DiskTest, SequentialFasterThanRandom)
{
    CostModel costs;
    Disk disk(64 << 20, costs, support::Rng(6));
    SimClock seqClock, rndClock;
    std::vector<u8> buf(kSectorSize * 16);
    Disk disk2(64 << 20, costs, support::Rng(6));
    for (int i = 0; i < 50; ++i)
        (void)disk.read(1000 + i * 16, 16, buf, seqClock);
    support::Rng rng(7);
    for (int i = 0; i < 50; ++i)
        (void)disk2.read(rng.below(100000), 16, buf, rndClock);
    EXPECT_LT(seqClock.now(), rndClock.now() / 3);
}

TEST(DiskTest, OverlapReducesVisibleTime)
{
    CostModel costs;
    Disk a(1 << 20, costs, support::Rng(8));
    Disk b(1 << 20, costs, support::Rng(8));
    SimClock ca, cb;
    std::vector<u8> buf(kSectorSize);
    (void)a.read(500, 1, buf, ca);
    (void)b.read(500, 1, buf, cb, /*overlapNs=*/1ull << 62);
    EXPECT_GT(ca.now(), 0u);
    EXPECT_EQ(cb.now(), 0u);
}

TEST(MachineTest, CrashThrowsAndCountsOnce)
{
    Machine machine(tinyConfig());
    EXPECT_THROW(machine.crash(CrashCause::KernelPanic, "boom"),
                 CrashException);
    EXPECT_TRUE(machine.crashed());
    EXPECT_EQ(machine.crashCount(), 1u);
    machine.noteCrash(machine.clock().now()); // Idempotent.
    EXPECT_EQ(machine.crashCount(), 1u);
}

TEST(MachineTest, WarmResetPreservesMemory)
{
    Machine machine(tinyConfig());
    const Addr probe =
        machine.mem().region(RegionKind::UbcPool).base + 128;
    machine.mem().raw()[probe] = 0x66;
    machine.reset(ResetKind::Warm);
    EXPECT_EQ(machine.mem().raw()[probe], 0x66);
    // But the firmware scribbles low memory (page 0 area).
    EXPECT_EQ(machine.mem().raw()[100], 0xdb);
}

TEST(MachineTest, ColdResetClearsMemory)
{
    Machine machine(tinyConfig());
    const Addr probe =
        machine.mem().region(RegionKind::UbcPool).base + 128;
    machine.mem().raw()[probe] = 0x66;
    machine.reset(ResetKind::Cold);
    EXPECT_EQ(machine.mem().raw()[probe], 0);
}

TEST(MachineTest, PcStyleHardwareLosesMemoryEvenOnWarmReset)
{
    MachineConfig config = tinyConfig();
    config.memorySurvivesReset = false;
    Machine machine(config);
    const Addr probe =
        machine.mem().region(RegionKind::UbcPool).base + 128;
    machine.mem().raw()[probe] = 0x66;
    machine.reset(ResetKind::Warm);
    EXPECT_EQ(machine.mem().raw()[probe], 0);
}

TEST(MachineTest, CrashCauseNamesDistinct)
{
    std::set<std::string> names;
    for (int cause = 0; cause < 6; ++cause)
        names.insert(crashCauseName(static_cast<CrashCause>(cause)));
    EXPECT_EQ(names.size(), 6u);
}

TEST(MachineTest, SwapMustHoldMemoryDump)
{
    MachineConfig config = tinyConfig();
    config.swapBytes = config.physMemBytes / 2;
    EXPECT_THROW(Machine machine(config), std::runtime_error);
}
