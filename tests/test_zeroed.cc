/**
 * @file
 * Tests for the lazily zeroed backing stores: physical memory, the
 * data disk, swap and the NV region start all zero without being
 * written, a cold reset zeroes memory again, and a warm reset keeps
 * every byte but the firmware scribble. copyIn reads as a plain copy
 * but leaves pages that would stay zero untouched.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <vector>

#include "sim/machine.hh"
#include "support/rng.hh"
#include "support/zeroed.hh"

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
    config.nvBytes = 1ull << 20;
    return config;
}

bool
allZero(std::span<const u8> bytes)
{
    return std::all_of(bytes.begin(), bytes.end(),
                       [](u8 b) { return b == 0; });
}

/** First, middle and last page of memory. */
std::vector<Addr>
probePages(const PhysMem &mem)
{
    return {0, (mem.numPages() / 2) << kPageShift,
            (mem.numPages() - 1) << kPageShift};
}

std::vector<SectorNo>
probeSectors(const Disk &disk)
{
    return {0, disk.numSectors() - 1};
}

std::vector<u64>
probeLines(const NvRegion &nv)
{
    return {0, nv.numLines() - 1};
}

/** Write @p fill over every probed page, sector and line. */
void
scribbleProbes(Machine &machine, u8 fill)
{
    for (Addr page : probePages(machine.mem()))
        std::fill_n(machine.mem().raw() + page, kPageSize, fill);
    for (Disk *disk : {&machine.disk(), &machine.swap()}) {
        for (SectorNo s : probeSectors(*disk)) {
            auto sector = disk->hostSector(s);
            std::fill(sector.begin(), sector.end(), fill);
        }
    }
    for (u64 line : probeLines(*machine.nv())) {
        auto bytes = machine.nv()->hostLine(line);
        std::fill(bytes.begin(), bytes.end(), fill);
    }
}

/** True if every probed sector and NV line holds only @p fill. */
bool
persistentProbesHold(Machine &machine, u8 fill)
{
    auto holds = [fill](std::span<const u8> bytes) {
        return std::all_of(bytes.begin(), bytes.end(),
                           [fill](u8 b) { return b == fill; });
    };
    for (Disk *disk : {&machine.disk(), &machine.swap()}) {
        for (SectorNo s : probeSectors(*disk)) {
            if (!holds(disk->peekSector(s)))
                return false;
        }
    }
    for (u64 line : probeLines(*machine.nv())) {
        if (!holds(machine.nv()->hostLine(line)))
            return false;
    }
    return true;
}

/** This process's resident set, from /proc/self/statm. */
i64
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    u64 size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<i64>(resident) * ::sysconf(_SC_PAGESIZE);
}

} // namespace

TEST(ZeroedStore, FreshMachineReadsZeroEverywhere)
{
    Machine machine(tinyConfig());
    const PhysMem &mem = machine.mem();
    for (Addr page : probePages(mem))
        EXPECT_TRUE(allZero(mem.image().subspan(page, kPageSize)))
            << "page at " << page;
    EXPECT_TRUE(allZero(mem.image()));
    EXPECT_TRUE(persistentProbesHold(machine, 0));
    EXPECT_TRUE(allZero(machine.nv()->image()));
}

TEST(ZeroedStore, ColdResetZeroesMemoryAndKeepsTheMedia)
{
    Machine machine(tinyConfig());
    const u8 *const base = machine.mem().raw();
    scribbleProbes(machine, 0x5a);
    machine.reset(ResetKind::Cold);
    // Same host address: the bus and the page table keep using it.
    EXPECT_EQ(machine.mem().raw(), base);
    EXPECT_TRUE(allZero(machine.mem().image()));
    // Disks and NV are persistent media: a reset does not touch them.
    EXPECT_TRUE(persistentProbesHold(machine, 0x5a));

    // Memory is writable after the reset and zeroes again on the next.
    scribbleProbes(machine, 0x77);
    for (Addr page : probePages(machine.mem()))
        EXPECT_EQ(machine.mem().raw()[page + kPageSize - 1], 0x77);
    machine.reset(ResetKind::Cold);
    EXPECT_TRUE(allZero(machine.mem().image()));
}

TEST(ZeroedStore, WarmResetKeepsAllButTheFirmwareScribble)
{
    MachineConfig config = tinyConfig();
    Machine machine(config);
    scribbleProbes(machine, 0x5a);
    machine.reset(ResetKind::Warm);
    const auto image = machine.mem().image();
    const u64 scribble = config.rebootScribbleBytes;
    ASSERT_LE(scribble, kPageSize);
    for (u64 i = 0; i < scribble; ++i)
        ASSERT_EQ(image[i], 0xdb) << "byte " << i;
    for (Addr page : probePages(machine.mem())) {
        for (u64 i = std::max<u64>(page, scribble); i < page + kPageSize;
             ++i)
            ASSERT_EQ(image[i], 0x5a) << "byte " << i;
    }
    EXPECT_TRUE(persistentProbesHold(machine, 0x5a));
}

TEST(ZeroedBytes, ZeroKeepsTheAddress)
{
    support::ZeroedBytes bytes(3 * kPageSize + 100);
    EXPECT_TRUE(allZero(bytes.span()));
    u8 *const base = bytes.data();
    std::fill_n(base, bytes.size(), 0xee);
    bytes.zero();
    EXPECT_EQ(bytes.data(), base);
    EXPECT_TRUE(allZero(bytes.span()));

    support::ZeroedBytes empty(0);
    EXPECT_EQ(empty.data(), nullptr);
    empty.zero();
    EXPECT_TRUE(empty.span().empty());
}

TEST(ZeroedBytes, CopyInZerosOverDataClearsThem)
{
    support::ZeroedBytes bytes(4 * 4096);
    const std::vector<u8> data(bytes.size(), 0xa5);
    const std::vector<u8> zeros(bytes.size(), 0);
    bytes.copyIn(0, data);
    bytes.copyIn(0, zeros);
    EXPECT_TRUE(allZero(bytes.span()));

    // A piece shorter than a page, across a page boundary.
    bytes.copyIn(0, data);
    bytes.copyIn(4096 - 10, std::span(zeros).first(30));
    for (u64 i = 0; i < bytes.size(); ++i) {
        const bool cleared = i >= 4096 - 10 && i < 4096 + 20;
        ASSERT_EQ(bytes.data()[i], cleared ? 0 : 0xa5) << "byte " << i;
    }
}

TEST(ZeroedBytes, CopyInReadsAsAPlainCopyAtAnyAlignment)
{
    support::ZeroedBytes bytes(6 * 4096 + 300);
    std::vector<u8> model(bytes.size(), 0);
    support::Rng rng(21);
    for (int op = 0; op < 500; ++op) {
        const u64 len = rng.below(3 * 4096);
        const u64 at = rng.below(bytes.size() - len + 1);
        // Zero, filled, or zero with one stray byte.
        std::vector<u8> src(len, 0);
        const u64 kind = rng.below(3);
        if (kind == 1)
            std::fill(src.begin(), src.end(), 1 + rng.below(255));
        else if (kind == 2 && len > 0)
            src[rng.below(len)] = 0x7f;
        bytes.copyIn(at, src);
        std::copy(src.begin(), src.end(), model.begin() + at);
    }
    EXPECT_TRUE(std::equal(model.begin(), model.end(), bytes.data()));
}

TEST(ZeroedBytes, CopyInOfZerosLeavesAFreshStoreUnbacked)
{
    constexpr u64 kStore = 64ull << 20;
    constexpr u64 kChunk = 256ull << 10;
    std::vector<u8> chunk(kChunk, 0);

    support::ZeroedBytes zeros(kStore);
    const i64 before = residentBytes();
    for (u64 at = 0; at < kStore; at += kChunk)
        zeros.copyIn(at, chunk);
    EXPECT_LT(residentBytes() - before, i64{1} << 20);

    std::fill(chunk.begin(), chunk.end(), 0x3c);
    support::ZeroedBytes data(kStore);
    const i64 mid = residentBytes();
    for (u64 at = 0; at < kStore; at += kChunk)
        data.copyIn(at, chunk);
    EXPECT_GE(residentBytes() - mid, i64{63} << 20);
}
