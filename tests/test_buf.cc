/**
 * @file
 * Unit tests for the buffer cache: block caching, the write-policy
 * routing that Rio hooks (bwrite/bawrite -> bdwrite), eviction
 * write-back, consistency checks on corrupted headers, and the
 * write-window guard protocol.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "os/buf.hh"
#include "sim/machine.hh"

using namespace rio;

namespace
{

/** Guard that records the call protocol. */
class RecordingGuard : public os::NullCacheGuard
{
  public:
    void
    install(Addr page, const os::CacheTag &tag) override
    {
        ++installs;
        lastTag = tag;
        lastPage = page;
    }

    void openWrite(Addr) override { ++begins; }
    void endWrite(Addr, u32) override { ++ends; }

    void
    setDirty(Addr, bool dirty) override
    {
        dirty ? ++dirties : ++cleans;
    }

    void invalidate(Addr) override { ++invalidates; }

    int installs = 0, begins = 0, ends = 0, dirties = 0, cleans = 0,
        invalidates = 0;
    os::CacheTag lastTag{};
    Addr lastPage = 0;
};

class BufTest : public ::testing::Test
{
  protected:
    BufTest()
        : machine_(machineConfig()),
          procs_(machine_, support::Rng(1)),
          heap_(machine_, procs_), kcopy_(machine_, procs_),
          locks_(machine_, procs_),
          buf_(machine_, procs_, heap_, kcopy_, locks_, config_)
    {
        machine_.pageTable().initIdentity();
        heap_.init();
        buf_.init(guard_, machine_.disk());
    }

    static sim::MachineConfig
    machineConfig()
    {
        sim::MachineConfig c;
        c.physMemBytes = 8ull << 20;
        c.kernelTextBytes = 1ull << 20;
        c.kernelHeapBytes = 2ull << 20;
        c.bufPoolBytes = 256ull << 10; // 32 buffers.
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
    RecordingGuard guard_;
    os::BufferCache buf_;
};

} // namespace

TEST_F(BufTest, BwriteReachesDiskAndBreadReadsBack)
{
    auto ref = buf_.getblk(1, 10);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.store32(0, 0xfeedbeef);
        window.store32(100, 0x1234);
    }
    buf_.bwrite(ref);

    // Evict by invalidating, then re-read from disk.
    buf_.invalidateBlock(1, 10);
    auto again = buf_.bread(1, 10);
    EXPECT_EQ(buf_.read32(again, 0), 0xfeedbeefu);
    EXPECT_EQ(buf_.read32(again, 100), 0x1234u);
    buf_.brelse(again);
}

TEST_F(BufTest, BdwriteDelaysTheDiskWrite)
{
    machine_.disk().resetStats();
    auto ref = buf_.getblk(1, 20);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.store32(0, 1);
    }
    buf_.bdwrite(ref);
    EXPECT_EQ(machine_.disk().stats().sectorsWritten, 0u);
    EXPECT_EQ(buf_.delwriCount(), 1u);
    buf_.flushDelwri(true);
    EXPECT_EQ(buf_.delwriCount(), 0u);
    EXPECT_GT(machine_.disk().stats().sectorsWritten, 0u);
}

TEST_F(BufTest, ReleaseWritePolicySyncWritesImmediately)
{
    config_.metadata = os::MetadataPolicy::Sync;
    machine_.disk().resetStats();
    auto ref = buf_.getblk(1, 30);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.store32(0, 1);
    }
    buf_.releaseWrite(ref);
    EXPECT_EQ(machine_.disk().stats().sectorsWritten,
              sim::kSectorsPerBlock);
}

TEST_F(BufTest, ReleaseWritePolicyNeverDelays)
{
    config_.metadata = os::MetadataPolicy::Never;
    config_.rio = true;
    machine_.disk().resetStats();
    auto ref = buf_.getblk(1, 31);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.store32(0, 1);
    }
    buf_.releaseWrite(ref);
    EXPECT_EQ(machine_.disk().stats().sectorsWritten, 0u);
    EXPECT_EQ(buf_.delwriCount(), 1u);
}

TEST_F(BufTest, CacheHitAvoidsDiskRead)
{
    auto a = buf_.bread(1, 40);
    buf_.brelse(a);
    machine_.disk().resetStats();
    auto b = buf_.bread(1, 40);
    buf_.brelse(b);
    EXPECT_EQ(machine_.disk().stats().sectorsRead, 0u);
    EXPECT_GE(buf_.stats().hits, 1u);
}

TEST_F(BufTest, EvictionWritesDirtyVictims)
{
    // Dirty one block, then stream enough other blocks through the
    // 32-buffer cache to force its eviction.
    auto ref = buf_.getblk(1, 50);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.store32(0, 0xabcd);
    }
    buf_.bdwrite(ref);
    machine_.disk().resetStats();
    for (u32 block = 100; block < 140; ++block)
        buf_.brelse(buf_.bread(1, block));
    EXPECT_GT(buf_.stats().evictions, 0u);
    EXPECT_GT(machine_.disk().stats().sectorsWritten, 0u);

    // The dirty data must be on disk now.
    std::vector<u8> sector(sim::kSectorSize);
    std::memcpy(sector.data(),
                machine_.disk()
                    .peekSector(50 * sim::kSectorsPerBlock)
                    .data(),
                sim::kSectorSize);
    u32 value;
    std::memcpy(&value, sector.data(), 4);
    EXPECT_EQ(value, 0xabcdu);
}

TEST_F(BufTest, BusyBuffersAreNotEvicted)
{
    auto held = buf_.getblk(1, 60); // Stays BUSY.
    for (u32 block = 200; block < 236; ++block)
        buf_.brelse(buf_.bread(1, block));
    // The held buffer must still be present and intact.
    EXPECT_EQ(buf_.pageAddr(held) % sim::kPageSize, 0u);
    auto again = buf_.getblk(1, 60);
    EXPECT_EQ(again, held);
}

TEST_F(BufTest, CorruptedHeaderMagicPanicsOnUse)
{
    auto ref = buf_.getblk(1, 70);
    buf_.brelse(ref);
    const Addr header = buf_.headerArena() +
                        static_cast<u64>(ref) *
                            os::BufferCache::kHeaderSize;
    machine_.mem().raw()[header] ^= 0x01; // Magic bit flip.
    EXPECT_THROW(buf_.getblk(1, 70), sim::CrashException);
}

TEST_F(BufTest, CorruptedDataPointerPanicsOnUse)
{
    auto ref = buf_.getblk(1, 71);
    buf_.brelse(ref);
    const Addr header = buf_.headerArena() +
                        static_cast<u64>(ref) *
                            os::BufferCache::kHeaderSize;
    const u64 wild = 0xdeadbeefull;
    std::memcpy(machine_.mem().raw() + header +
                    os::BufferCache::kOffData,
                &wild, 8);
    EXPECT_THROW(buf_.getblk(1, 71), sim::CrashException);
}

TEST_F(BufTest, OutOfRangeBlockNumberPanics)
{
    const u64 diskBlocks =
        machine_.disk().numSectors() / sim::kSectorsPerBlock;
    EXPECT_THROW(buf_.bread(1, static_cast<BlockNo>(diskBlocks + 5)),
                 sim::CrashException);
}

TEST_F(BufTest, GuardSeesInstallWriteDirtyProtocol)
{
    auto ref = buf_.getblk(1, 80);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.store32(0, 1);
    }
    EXPECT_GE(guard_.installs, 1);
    EXPECT_EQ(guard_.begins, guard_.ends);
    EXPECT_GE(guard_.dirties, 1);
    EXPECT_EQ(guard_.lastTag.kind, os::CacheKind::Metadata);
    EXPECT_EQ(guard_.lastTag.diskBlock, 80u);
    buf_.bdwrite(ref);

    const int cleansBefore = guard_.cleans;
    buf_.flushDelwri(true);
    EXPECT_GT(guard_.cleans, cleansBefore);
}

TEST_F(BufTest, InvalidateDevDropsEverything)
{
    for (u32 block = 300; block < 310; ++block)
        buf_.brelse(buf_.bread(1, block));
    buf_.invalidateDev(1);
    machine_.disk().resetStats();
    buf_.brelse(buf_.bread(1, 305)); // Must hit the disk again.
    EXPECT_GT(machine_.disk().stats().sectorsRead, 0u);
}

TEST_F(BufTest, WriteWindowDataSurvivesCopyIn)
{
    auto ref = buf_.getblk(1, 90);
    std::vector<u8> data(500);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 3);
    {
        os::BufferCache::WriteWindow window(buf_, ref);
        window.zero(0, sim::kPageSize);
        window.copyIn(1000, data);
    }
    std::vector<u8> out(500);
    buf_.readData(ref, 1000, out);
    EXPECT_EQ(out, data);
    buf_.brelse(ref);
}
