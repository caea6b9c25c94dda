/**
 * @file
 * Tests for the lazily zeroed backing stores: physical memory, the
 * data disk, swap and the NV region start all zero without being
 * written, a cold reset zeroes memory again, and a warm reset keeps
 * every byte but the firmware scribble.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/machine.hh"
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
