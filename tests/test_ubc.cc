/**
 * @file
 * Unit tests for the Unified Buffer Cache: page lookup/fill, the
 * KSEG-addressed write path, flush and invalidation, truncation
 * semantics, eviction spills through the backing store, and the
 * host-side dirty-page index that keeps write-back O(dirty).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "os/ubc.hh"
#include "sim/machine.hh"

using namespace rio;

namespace
{

/** In-memory backing store standing in for UFS. */
class FakeStore : public os::BackingStore
{
  public:
    u32
    fillPage(DevNo, InodeNo ino, u64 pageIdx, Addr pagePhys) override
    {
        ++fills;
        auto it = pages.find({ino, pageIdx});
        std::vector<u8> content(sim::kPageSize, 0);
        u32 valid = 0;
        if (it != pages.end()) {
            content = it->second;
            valid = sim::kPageSize;
        }
        std::memcpy(mem->raw() + pagePhys, content.data(),
                    sim::kPageSize);
        return valid;
    }

    void
    spillPage(DevNo, InodeNo ino, u64 pageIdx, Addr pagePhys,
              u32 validBytes, bool) override
    {
        ++spills;
        spillOrder.push_back(pagePhys);
        std::vector<u8> content(sim::kPageSize, 0);
        std::memcpy(content.data(), mem->raw() + pagePhys,
                    sim::kPageSize);
        pages[{ino, pageIdx}] = std::move(content);
        lastValid = validBytes;
    }

    sim::PhysMem *mem = nullptr;
    std::map<std::pair<InodeNo, u64>, std::vector<u8>> pages;
    int fills = 0;
    int spills = 0;
    std::vector<Addr> spillOrder;
    u32 lastValid = 0;
};

class UbcTest : public ::testing::Test
{
  protected:
    UbcTest()
        : machine_(machineConfig()),
          procs_(machine_, support::Rng(1)),
          heap_(machine_, procs_), kcopy_(machine_, procs_),
          locks_(machine_, procs_),
          ubc_(machine_, procs_, heap_, kcopy_, locks_, config_)
    {
        machine_.pageTable().initIdentity();
        heap_.init();
        store_.mem = &machine_.mem();
        ubc_.init(guard_, store_);
    }

    static sim::MachineConfig
    machineConfig()
    {
        sim::MachineConfig c;
        c.physMemBytes = 8ull << 20;
        c.kernelTextBytes = 1ull << 20;
        c.kernelHeapBytes = 2ull << 20;
        c.bufPoolBytes = 256ull << 10;
        c.ubcPoolBytes = 512ull << 10; // 64 pages.
        c.diskBytes = 16ull << 20;
        c.swapBytes = 8ull << 20;
        return c;
    }

    sim::Machine machine_;
    os::KernelConfig config_;
    os::KProcTable procs_;
    os::KernelHeap heap_;
    os::KCopy kcopy_;
    os::LockTable locks_;
    os::NullCacheGuard guard_;
    FakeStore store_;
    os::Ubc ubc_;

    /** Overwrite @p ref's header flags with a raw (unchecked) store. */
    void
    rawSetFlags(os::Ubc::Ref ref, u32 value)
    {
        const Addr header = ubc_.headerArena() +
                            static_cast<u64>(ref) * os::Ubc::kHeaderSize;
        std::memcpy(machine_.mem().raw() + header + os::Ubc::kOffFlags,
                    &value, 4);
    }
};

} // namespace

TEST_F(UbcTest, WriteThenReadRoundTrip)
{
    auto ref = ubc_.getPage(1, 5, 0, false);
    std::vector<u8> data(1000, 0x42);
    ubc_.write(ref, 100, data, 1100);
    std::vector<u8> out(1000);
    ubc_.read(ref, 100, out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(ubc_.validBytes(ref), 1100u);
}

TEST_F(UbcTest, FreshPageIsZeroed)
{
    auto ref = ubc_.getPage(1, 6, 0, false);
    std::vector<u8> out(sim::kPageSize, 0xff);
    ubc_.read(ref, 0, out);
    for (const u8 byte : out)
        ASSERT_EQ(byte, 0);
}

TEST_F(UbcTest, FillPullsFromBackingStore)
{
    std::vector<u8> content(sim::kPageSize, 0x77);
    store_.pages[{7, 0}] = content;
    auto ref = ubc_.getPage(1, 7, 0, true);
    EXPECT_EQ(store_.fills, 1);
    std::vector<u8> out(16);
    ubc_.read(ref, 0, out);
    EXPECT_EQ(out[0], 0x77);
    EXPECT_EQ(ubc_.validBytes(ref), sim::kPageSize);
}

TEST_F(UbcTest, HitDoesNotRefill)
{
    ubc_.getPage(1, 8, 0, true);
    const int fills = store_.fills;
    ubc_.getPage(1, 8, 0, true);
    EXPECT_EQ(store_.fills, fills);
    EXPECT_GE(ubc_.stats().hits, 1u);
}

TEST_F(UbcTest, FlushFileSpillsOnlyDirtyPages)
{
    std::vector<u8> data(100, 1);
    auto a = ubc_.getPage(1, 9, 0, false);
    ubc_.write(a, 0, data, 100);
    ubc_.getPage(1, 9, 1, false); // Clean page, never written.
    ubc_.flushFile(1, 9, true);
    EXPECT_EQ(store_.spills, 1);
    EXPECT_EQ(store_.lastValid, 100u);
    EXPECT_EQ(ubc_.dirtyBytesOfFile(1, 9), 0u);
}

TEST_F(UbcTest, DirtyBytesTracksWrites)
{
    std::vector<u8> data(3000, 2);
    auto a = ubc_.getPage(1, 10, 0, false);
    ubc_.write(a, 0, data, 3000);
    EXPECT_EQ(ubc_.dirtyBytesOfFile(1, 10), 3000u);
    auto b = ubc_.getPage(1, 10, 1, false);
    ubc_.write(b, 0, data, 3000);
    EXPECT_EQ(ubc_.dirtyBytesOfFile(1, 10), 6000u);
    EXPECT_EQ(ubc_.dirtyPages(), 2u);
}

TEST_F(UbcTest, InvalidateDropsWithoutSpilling)
{
    std::vector<u8> data(100, 3);
    auto a = ubc_.getPage(1, 11, 0, false);
    ubc_.write(a, 0, data, 100);
    ubc_.invalidateFile(1, 11);
    EXPECT_EQ(store_.spills, 0);
    EXPECT_EQ(ubc_.dirtyBytesOfFile(1, 11), 0u);
    // A fresh lookup misses.
    const auto missesBefore = ubc_.stats().misses;
    ubc_.getPage(1, 11, 0, false);
    EXPECT_EQ(ubc_.stats().misses, missesBefore + 1);
}

TEST_F(UbcTest, TruncateDropsTailAndZeroesBoundary)
{
    std::vector<u8> data(sim::kPageSize, 4);
    for (u64 page = 0; page < 3; ++page) {
        auto ref = ubc_.getPage(1, 12, page, false);
        ubc_.write(ref, 0, data, sim::kPageSize);
    }
    // Truncate to 1.5 pages.
    const u64 newSize = sim::kPageSize + sim::kPageSize / 2;
    ubc_.truncateFile(1, 12, newSize);

    auto boundary = ubc_.getPage(1, 12, 1, false);
    EXPECT_EQ(ubc_.validBytes(boundary), sim::kPageSize / 2);
    std::vector<u8> out(sim::kPageSize);
    ubc_.read(boundary, 0, out);
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[sim::kPageSize / 2], 0); // Zeroed past new EOF.

    // Page 2 must be gone.
    const auto missesBefore = ubc_.stats().misses;
    ubc_.getPage(1, 12, 2, false);
    EXPECT_EQ(ubc_.stats().misses, missesBefore + 1);
}

TEST_F(UbcTest, EvictionSpillsDirtyAndPreservesContents)
{
    std::vector<u8> data(sim::kPageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i);
    auto ref = ubc_.getPage(1, 13, 0, false);
    ubc_.write(ref, 0, data, sim::kPageSize);

    // Flood the 64-page pool.
    std::vector<u8> junk(8, 9);
    for (u64 page = 0; page < 100; ++page) {
        auto r = ubc_.getPage(1, 99, page, false);
        ubc_.write(r, 0, junk, 8);
    }
    EXPECT_GT(ubc_.stats().evictions, 0u);
    EXPECT_GE(store_.spills, 1);

    // Re-read through the backing store: contents intact.
    auto again = ubc_.getPage(1, 13, 0, true);
    std::vector<u8> out(sim::kPageSize);
    ubc_.read(again, 0, out);
    EXPECT_EQ(out, data);
}

TEST_F(UbcTest, CorruptedPagePointerPanics)
{
    auto ref = ubc_.getPage(1, 14, 0, false);
    const Addr header =
        ubc_.headerArena() + static_cast<u64>(ref) * os::Ubc::kHeaderSize;
    const u64 wild = 0x123456789abcull;
    std::memcpy(machine_.mem().raw() + header + os::Ubc::kOffData,
                &wild, 8);
    EXPECT_THROW(ubc_.pagePhys(ref), sim::CrashException);
}

TEST_F(UbcTest, CorruptedIdentityPanicsOnLookup)
{
    auto ref = ubc_.getPage(1, 15, 3, false);
    const Addr header =
        ubc_.headerArena() + static_cast<u64>(ref) * os::Ubc::kHeaderSize;
    const u32 wrongIno = 999;
    std::memcpy(machine_.mem().raw() + header + os::Ubc::kOffIno,
                &wrongIno, 4);
    EXPECT_THROW(ubc_.getPage(1, 15, 3, false), sim::CrashException);
}

TEST_F(UbcTest, InvalidateAllEmptiesTheCache)
{
    for (u64 page = 0; page < 10; ++page)
        ubc_.getPage(1, 16, page, false);
    ubc_.flushAll(true);
    ubc_.invalidateAll();
    EXPECT_EQ(ubc_.dirtyPages(), 0u);
    const auto missesBefore = ubc_.stats().misses;
    ubc_.getPage(1, 16, 0, false);
    EXPECT_EQ(ubc_.stats().misses, missesBefore + 1);
}

TEST_F(UbcTest, EvictionNeverHandsOutALiveFrame)
{
    // Flood the 64-page pool with 100 tagged pages; LRU keeps the
    // last 64, each in a frame of its own.
    auto tag = [](u64 page) {
        return std::vector<u8>(16, static_cast<u8>(page + 1));
    };
    for (u64 page = 0; page < 100; ++page) {
        auto ref = ubc_.getPage(1, 17, page, false);
        ubc_.write(ref, 0, tag(page), 16);
    }
    const auto missesBefore = ubc_.stats().misses;
    std::set<os::Ubc::Ref> refs;
    for (u64 page = 36; page < 100; ++page) {
        auto ref = ubc_.getPage(1, 17, page, false);
        refs.insert(ref);
        std::vector<u8> out(16);
        ubc_.read(ref, 0, out);
        EXPECT_EQ(out, tag(page)) << "page " << page;
    }
    EXPECT_EQ(ubc_.stats().misses, missesBefore);
    EXPECT_EQ(refs.size(), 64u);
}

TEST_F(UbcTest, FlushAllReadsOnlyDirtyHeaders)
{
    // Dirty the same two pages with 4 and with 60 pages cached: the
    // flush reads the same number of words either way.
    std::vector<u8> data(100, 5);
    std::vector<u64> loads;
    InodeNo ino = 18;
    for (const u64 cached : {4, 60}) {
        std::vector<os::Ubc::Ref> refs;
        for (u64 page = 0; page < cached; ++page)
            refs.push_back(ubc_.getPage(1, ino, page, false));
        // Dirty the higher ref first; the flush still spills in
        // ascending ref order.
        const os::Ubc::Ref lo = std::min(refs[1], refs[3]);
        const os::Ubc::Ref hi = std::max(refs[1], refs[3]);
        ubc_.write(hi, 0, data, 100);
        ubc_.write(lo, 0, data, 100);
        EXPECT_EQ(ubc_.dirtyPages(), 2u);

        store_.spillOrder.clear();
        const int spillsBefore = store_.spills;
        const u64 loadsBefore = machine_.bus().stats().loads;
        ubc_.flushAll(false);
        loads.push_back(machine_.bus().stats().loads - loadsBefore);

        EXPECT_EQ(store_.spills - spillsBefore, 2);
        EXPECT_EQ(store_.spillOrder,
                  (std::vector<Addr>{ubc_.pagePhys(lo), ubc_.pagePhys(hi)}));
        EXPECT_EQ(ubc_.dirtyPages(), 0u);
        ubc_.invalidateAll();
        ++ino;
    }
    EXPECT_EQ(loads[0], loads[1]);
}

TEST_F(UbcTest, DroppedDirtyPagesAreNeverSpilledAgain)
{
    std::vector<u8> data(sim::kPageSize, 6);
    // Removed file: its dirty page is discarded.
    ubc_.write(ubc_.getPage(1, 19, 0, false), 0, data, sim::kPageSize);
    ubc_.invalidateFile(1, 19);
    // Truncated file: the two tail pages go, the head pages stay dirty.
    for (u64 page = 0; page < 4; ++page)
        ubc_.write(ubc_.getPage(1, 20, page, false), 0, data,
                   sim::kPageSize);
    ubc_.truncateFile(1, 20, 2 * sim::kPageSize);
    EXPECT_EQ(ubc_.dirtyPages(), 2u);
    ubc_.flushAll(false);
    EXPECT_EQ(store_.spills, 2);
    EXPECT_EQ(store_.pages.count({19, 0}), 0u);
    EXPECT_EQ(store_.pages.count({20, 2}), 0u);
    EXPECT_EQ(store_.pages.count({20, 3}), 0u);

    // Evicted page: spilled once on eviction, never by a later flush.
    ubc_.write(ubc_.getPage(1, 21, 0, false), 0, data, sim::kPageSize);
    for (u64 page = 0; page < 64; ++page)
        ubc_.getPage(1, 22, page, false);
    EXPECT_EQ(store_.spills, 3);
    ubc_.flushAll(false);
    EXPECT_EQ(store_.spills, 3);
    EXPECT_EQ(ubc_.dirtyPages(), 0u);
}

TEST_F(UbcTest, HeaderFlagsStayAuthoritativeOverTheIndex)
{
    std::vector<u8> data(100, 7);
    auto ref = ubc_.getPage(1, 23, 0, false);
    ubc_.write(ref, 0, data, 100);
    // A raw store clears kDirty: the flush skips the page, as the
    // header says it is clean.
    rawSetFlags(ref, os::Ubc::kValid);
    EXPECT_EQ(ubc_.dirtyPages(), 0u);
    ubc_.flushAll(false);
    EXPECT_EQ(store_.spills, 0);
    // The next write dirties it again, and the flush spills it.
    ubc_.write(ref, 0, data, 100);
    EXPECT_EQ(ubc_.dirtyPages(), 1u);
    ubc_.flushAll(false);
    EXPECT_EQ(store_.spills, 1);
}

TEST_F(UbcTest, ReinitEmptiesTheDirtyIndex)
{
    std::vector<u8> data(100, 8);
    auto before = ubc_.getPage(1, 24, 0, false);
    ubc_.write(before, 0, data, 100);
    // Warm reboot: the heap and the UBC start over.
    heap_.init();
    ubc_.init(guard_, store_);
    auto after = ubc_.getPage(1, 25, 0, false);
    ASSERT_EQ(after, before);
    // Only a write() enters the index: a page a wild store marks
    // dirty is not written back by the flush.
    rawSetFlags(after, os::Ubc::kValid | os::Ubc::kDirty);
    ubc_.flushAll(false);
    EXPECT_EQ(store_.spills, 0);
}
