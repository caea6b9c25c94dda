/**
 * @file
 * Unit and integration tests for the UFS file system: on-disk
 * format, inode and block allocation, directories, path resolution
 * (including symlinks), file data through the UBC, truncation, and
 * space accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "os/kernel.hh"
#include "sim/machine.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

class UfsTest : public ::testing::Test
{
  protected:
    UfsTest() : machine_(test::smallMachine())
    {
        kernel_ = std::make_unique<os::Kernel>(
            machine_, os::systemPreset(os::SystemPreset::UfsDelayAll));
        kernel_->boot(nullptr, true);
    }

    os::Ufs &ufs() { return kernel_->ufs(); }

    sim::Machine machine_;
    std::unique_ptr<os::Kernel> kernel_;
};

} // namespace

TEST_F(UfsTest, MountReadsSaneGeometry)
{
    const auto &geo = ufs().geometry();
    EXPECT_GT(geo.totalBlocks, 0u);
    EXPECT_LT(geo.dataStart, geo.logStart);
    EXPECT_EQ(geo.logStart + geo.logBlocks, geo.totalBlocks);
    EXPECT_GT(ufs().freeBlocks(), 0u);
    EXPECT_GT(ufs().freeInodes(), 0u);
}

TEST_F(UfsTest, CreateAndLookup)
{
    auto ino = ufs().create("/hello", os::FileType::Regular);
    ASSERT_TRUE(ino.ok());
    auto found = ufs().namei("/hello");
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), ino.value());
}

TEST_F(UfsTest, CreateDuplicateFails)
{
    ASSERT_TRUE(ufs().create("/dup", os::FileType::Regular).ok());
    auto again = ufs().create("/dup", os::FileType::Regular);
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(again.status(), support::OsStatus::Exist);
}

TEST_F(UfsTest, LookupMissingIsNoEnt)
{
    auto missing = ufs().namei("/nope");
    EXPECT_EQ(missing.status(), support::OsStatus::NoEnt);
}

TEST_F(UfsTest, PathComponentThroughFileIsNotDir)
{
    ASSERT_TRUE(ufs().create("/plain", os::FileType::Regular).ok());
    auto bad = ufs().namei("/plain/sub");
    EXPECT_EQ(bad.status(), support::OsStatus::NotDir);
}

TEST_F(UfsTest, NameTooLongRejected)
{
    const std::string longName(os::Ufs::kNameMax + 1, 'x');
    auto bad = ufs().create("/" + longName, os::FileType::Regular);
    EXPECT_EQ(bad.status(), support::OsStatus::NameTooLong);
}

TEST_F(UfsTest, WriteReadSmallFile)
{
    auto ino = ufs().create("/small", os::FileType::Regular);
    std::vector<u8> data(100, 0x11);
    auto wrote = ufs().writeFile(ino.value(), 0, data);
    ASSERT_TRUE(wrote.ok());
    EXPECT_EQ(wrote.value(), 100u);
    std::vector<u8> out(100);
    auto got = ufs().readFile(ino.value(), 0, out);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 100u);
    EXPECT_EQ(out, data);
}

TEST_F(UfsTest, WriteReadAcrossIndirectBlocks)
{
    // > 12 direct blocks forces the indirect path (13 * 8K = 104K).
    auto ino = ufs().create("/big", os::FileType::Regular);
    const u64 size = 130 * 1024;
    std::vector<u8> data(size);
    for (std::size_t i = 0; i < size; ++i)
        data[i] = static_cast<u8>(i * 7 + (i >> 11));
    ASSERT_TRUE(ufs().writeFile(ino.value(), 0, data).ok());

    auto inode = ufs().iget(ino.value());
    ASSERT_TRUE(inode.ok());
    EXPECT_EQ(inode.value().size, size);
    EXPECT_NE(inode.value().indirect, 0u);

    std::vector<u8> out(size);
    ASSERT_TRUE(ufs().readFile(ino.value(), 0, out).ok());
    EXPECT_EQ(out, data);
}

TEST_F(UfsTest, DoubleIndirectReadWriteRoundTrip)
{
    // File blocks beyond 12 + 2048 need the double-indirect tree.
    auto ino = ufs().create("/huge", os::FileType::Regular);
    const u64 farOffset =
        (os::Ufs::kDirectBlocks + os::Ufs::kIndirectEntries + 700) *
        os::Ufs::kBlockSize;
    std::vector<u8> data(20000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 13 + 5);
    ASSERT_TRUE(ufs().writeFile(ino.value(), farOffset, data).ok());

    auto inode = ufs().iget(ino.value());
    ASSERT_TRUE(inode.ok());
    EXPECT_NE(inode.value().doubleIndirect, 0u);
    EXPECT_EQ(inode.value().size, farOffset + data.size());

    std::vector<u8> out(20000);
    ASSERT_TRUE(ufs().readFile(ino.value(), farOffset, out).ok());
    EXPECT_EQ(out, data);

    // The hole before the data reads as zeroes.
    std::vector<u8> hole(100, 0xff);
    ASSERT_TRUE(
        ufs().readFile(ino.value(), farOffset / 2, hole).ok());
    for (const u8 byte : hole)
        ASSERT_EQ(byte, 0);
}

TEST_F(UfsTest, DoubleIndirectBlocksAreFreedOnRemove)
{
    // Warm the directory first (its block never shrinks back).
    ASSERT_TRUE(ufs().create("/dd", os::FileType::Regular).ok());
    ASSERT_TRUE(ufs().remove("/dd").ok());
    const u32 freeBefore = ufs().freeBlocks();

    auto ino = ufs().create("/dd", os::FileType::Regular);
    std::vector<u8> data(os::Ufs::kBlockSize, 0x3a);
    // Two pages inside the double-indirect range, in different inner
    // blocks, plus one direct page.
    const u64 base =
        os::Ufs::kDirectBlocks + os::Ufs::kIndirectEntries;
    ASSERT_TRUE(ufs().writeFile(ino.value(), 0, data).ok());
    ASSERT_TRUE(ufs()
                    .writeFile(ino.value(),
                               base * os::Ufs::kBlockSize, data)
                    .ok());
    ASSERT_TRUE(
        ufs()
            .writeFile(ino.value(),
                       (base + os::Ufs::kIndirectEntries + 3) *
                           os::Ufs::kBlockSize,
                       data)
            .ok());
    EXPECT_LT(ufs().freeBlocks(), freeBefore);
    ASSERT_TRUE(ufs().remove("/dd").ok());
    EXPECT_EQ(ufs().freeBlocks(), freeBefore);
}

TEST_F(UfsTest, DoubleIndirectTruncatePartial)
{
    auto ino = ufs().create("/part", os::FileType::Regular);
    std::vector<u8> data(os::Ufs::kBlockSize, 0x4b);
    const u64 base =
        os::Ufs::kDirectBlocks + os::Ufs::kIndirectEntries;
    for (u64 i = 0; i < 4; ++i) {
        ASSERT_TRUE(ufs()
                        .writeFile(ino.value(),
                                   (base + i) * os::Ufs::kBlockSize,
                                   data)
                        .ok());
    }
    // Truncate in the middle of the double-indirect range.
    const u64 keep = (base + 2) * os::Ufs::kBlockSize;
    ASSERT_TRUE(ufs().truncate(ino.value(), keep).ok());
    EXPECT_EQ(ufs().iget(ino.value()).value().size, keep);

    // Kept blocks are readable, cut blocks read as holes.
    std::vector<u8> out(100);
    ASSERT_TRUE(ufs()
                    .readFile(ino.value(),
                              (base + 1) * os::Ufs::kBlockSize, out)
                    .ok());
    EXPECT_EQ(out[0], 0x4b);

    // fsck agrees the tree is consistent.
    kernel_->shutdown();
    sim::SimClock clock;
    auto report = os::runFsck(machine_.disk(), clock, true);
    EXPECT_EQ(report.errorsFixed(), 0u);
}

TEST_F(UfsTest, FileSizeLimitEnforced)
{
    auto ino = ufs().create("/toolarge", os::FileType::Regular);
    std::vector<u8> byte(1, 0);
    auto bad =
        ufs().writeFile(ino.value(), os::Ufs::kMaxFileBytes, byte);
    EXPECT_EQ(bad.status(), support::OsStatus::TooBig);
}

TEST_F(UfsTest, SparseFileReadsZeroesInHole)
{
    auto ino = ufs().create("/sparse", os::FileType::Regular);
    std::vector<u8> tail(10, 0xee);
    // Write at 40 KB, leaving a 5-block hole.
    ASSERT_TRUE(ufs().writeFile(ino.value(), 40960, tail).ok());
    std::vector<u8> out(100, 0xff);
    auto got = ufs().readFile(ino.value(), 10000, out);
    ASSERT_TRUE(got.ok());
    for (const u8 byte : out)
        ASSERT_EQ(byte, 0);
}

TEST_F(UfsTest, OverwriteMiddleKeepsNeighbours)
{
    auto ino = ufs().create("/mid", os::FileType::Regular);
    std::vector<u8> base(30000, 0x01);
    ASSERT_TRUE(ufs().writeFile(ino.value(), 0, base).ok());
    std::vector<u8> patch(5000, 0x02);
    ASSERT_TRUE(ufs().writeFile(ino.value(), 10000, patch).ok());

    std::vector<u8> out(30000);
    ASSERT_TRUE(ufs().readFile(ino.value(), 0, out).ok());
    EXPECT_EQ(out[9999], 0x01);
    EXPECT_EQ(out[10000], 0x02);
    EXPECT_EQ(out[14999], 0x02);
    EXPECT_EQ(out[15000], 0x01);
}

TEST_F(UfsTest, RemoveFreesSpace)
{
    // Warm the parent directory so its dirent block (which never
    // shrinks back) is already allocated before we measure.
    ASSERT_TRUE(ufs().create("/temp", os::FileType::Regular).ok());
    ASSERT_TRUE(ufs().remove("/temp").ok());

    const u32 freeBefore = ufs().freeBlocks();
    const u32 inodesBefore = ufs().freeInodes();
    auto ino = ufs().create("/temp", os::FileType::Regular);
    std::vector<u8> data(100 * 1024, 0xaa);
    ASSERT_TRUE(ufs().writeFile(ino.value(), 0, data).ok());
    EXPECT_LT(ufs().freeBlocks(), freeBefore);
    ASSERT_TRUE(ufs().remove("/temp").ok());
    EXPECT_EQ(ufs().freeBlocks(), freeBefore);
    EXPECT_EQ(ufs().freeInodes(), inodesBefore);
    EXPECT_EQ(ufs().namei("/temp").status(),
              support::OsStatus::NoEnt);
}

TEST_F(UfsTest, RemoveDirectoryWithRemoveIsIsDir)
{
    ASSERT_TRUE(ufs().mkdir("/d").ok());
    EXPECT_EQ(ufs().remove("/d").status(), support::OsStatus::IsDir);
}

TEST_F(UfsTest, RmdirRequiresEmpty)
{
    ASSERT_TRUE(ufs().mkdir("/d2").ok());
    ASSERT_TRUE(ufs().create("/d2/f", os::FileType::Regular).ok());
    EXPECT_EQ(ufs().rmdir("/d2").status(),
              support::OsStatus::NotEmpty);
    ASSERT_TRUE(ufs().remove("/d2/f").ok());
    EXPECT_TRUE(ufs().rmdir("/d2").ok());
}

TEST_F(UfsTest, RmdirRootRefused)
{
    EXPECT_FALSE(ufs().rmdir("/").ok());
}

TEST_F(UfsTest, DeepDirectoryTree)
{
    std::string path;
    for (int depth = 0; depth < 8; ++depth) {
        path += "/lvl" + std::to_string(depth);
        ASSERT_TRUE(ufs().mkdir(path).ok());
    }
    auto ino = ufs().create(path + "/leaf", os::FileType::Regular);
    ASSERT_TRUE(ino.ok());
    EXPECT_TRUE(ufs().namei(path + "/leaf").ok());
}

TEST_F(UfsTest, DirectoryGrowsPastOneBlock)
{
    ASSERT_TRUE(ufs().mkdir("/many").ok());
    // 128 dirents per block; create 300 files.
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(ufs()
                        .create("/many/f" + std::to_string(i),
                                os::FileType::Regular)
                        .ok());
    }
    auto listing = ufs().dirList(ufs().namei("/many").value());
    ASSERT_TRUE(listing.ok());
    std::vector<std::string> listed, created;
    for (const os::DirEntry &entry : listing.value())
        listed.push_back(entry.name);
    for (int i = 0; i < 300; ++i)
        created.push_back("f" + std::to_string(i));
    std::ranges::sort(listed);
    std::ranges::sort(created);
    EXPECT_EQ(listed, created);
    EXPECT_TRUE(ufs().namei("/many/f299").ok());
}

/** Names compare whole: a prefix of an entry's name is another name. */
TEST_F(UfsTest, PrefixOfAnEntryIsNotAMatch)
{
    ASSERT_TRUE(ufs().mkdir("/p").ok());
    auto f10 = ufs().create("/p/f10", os::FileType::Regular);
    ASSERT_TRUE(f10.ok());
    EXPECT_EQ(ufs().namei("/p/f1").status(), support::OsStatus::NoEnt);
    auto f1 = ufs().create("/p/f1", os::FileType::Regular);
    ASSERT_TRUE(f1.ok());
    EXPECT_NE(f1.value(), f10.value());
    EXPECT_EQ(ufs().namei("/p/f1").value(), f1.value());
    EXPECT_EQ(ufs().namei("/p/f10").value(), f10.value());
}

TEST_F(UfsTest, LongestNameRoundTrips)
{
    const std::string name(os::Ufs::kNameMax, 'n');
    ASSERT_EQ(name.size(), 56u);
    auto ino = ufs().create("/" + name, os::FileType::Regular);
    ASSERT_TRUE(ino.ok());
    EXPECT_EQ(ufs().namei("/" + name).value(), ino.value());
    auto listing = ufs().dirList(os::Ufs::kRootIno);
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(std::ranges::count_if(listing.value(),
                                    [&](const os::DirEntry &entry) {
                                        return entry.name == name;
                                    }),
              1);
    ASSERT_TRUE(ufs().remove("/" + name).ok());
    EXPECT_EQ(ufs().namei("/" + name).status(),
              support::OsStatus::NoEnt);
}

TEST_F(UfsTest, DirentHolesAreReused)
{
    ASSERT_TRUE(ufs().mkdir("/holes").ok());
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(ufs()
                        .create("/holes/f" + std::to_string(i),
                                os::FileType::Regular)
                        .ok());
    }
    const auto dirIno = ufs().namei("/holes").value();
    const u64 sizeBefore = ufs().iget(dirIno).value().size;
    ASSERT_TRUE(ufs().remove("/holes/f3").ok());
    ASSERT_TRUE(
        ufs().create("/holes/fnew", os::FileType::Regular).ok());
    EXPECT_EQ(ufs().iget(dirIno).value().size, sizeBefore);
}

TEST_F(UfsTest, RenameMovesBetweenDirectories)
{
    ASSERT_TRUE(ufs().mkdir("/src").ok());
    ASSERT_TRUE(ufs().mkdir("/dst").ok());
    auto ino = ufs().create("/src/file", os::FileType::Regular);
    ASSERT_TRUE(ufs().rename("/src/file", "/dst/moved").ok());
    EXPECT_EQ(ufs().namei("/src/file").status(),
              support::OsStatus::NoEnt);
    EXPECT_EQ(ufs().namei("/dst/moved").value(), ino.value());
}

TEST_F(UfsTest, RenameOverwritesExistingFile)
{
    auto a = ufs().create("/ra", os::FileType::Regular);
    auto b = ufs().create("/rb", os::FileType::Regular);
    std::vector<u8> data(10, 5);
    ASSERT_TRUE(ufs().writeFile(b.value(), 0, data).ok());
    const u32 inodesBefore = ufs().freeInodes();
    ASSERT_TRUE(ufs().rename("/ra", "/rb").ok());
    EXPECT_EQ(ufs().namei("/rb").value(), a.value());
    EXPECT_EQ(ufs().freeInodes(), inodesBefore + 1); // b freed.
}

TEST_F(UfsTest, RenameDirIntoOwnSubtreeRejected)
{
    ASSERT_TRUE(ufs().mkdir("/outer").ok());
    ASSERT_TRUE(ufs().mkdir("/outer/inner").ok());
    EXPECT_EQ(ufs().rename("/outer", "/outer/inner/self").status(),
              support::OsStatus::Inval);
    // Moving a directory sideways still works.
    ASSERT_TRUE(ufs().mkdir("/other").ok());
    EXPECT_TRUE(ufs().rename("/outer/inner", "/other/moved").ok());
    EXPECT_TRUE(ufs().namei("/other/moved").ok());
}

TEST_F(UfsTest, RenameToSelfIsNoop)
{
    auto ino = ufs().create("/self", os::FileType::Regular);
    ASSERT_TRUE(ufs().rename("/self", "/self").ok());
    EXPECT_EQ(ufs().namei("/self").value(), ino.value());
}

TEST_F(UfsTest, SymlinkFollowedByNamei)
{
    ASSERT_TRUE(ufs().mkdir("/real").ok());
    auto target = ufs().create("/real/file", os::FileType::Regular);
    ASSERT_TRUE(ufs().symlink("/real/file", "/link").ok());
    auto followed = ufs().namei("/link");
    ASSERT_TRUE(followed.ok());
    EXPECT_EQ(followed.value(), target.value());
    auto raw = ufs().readlink("/link");
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw.value(), "/real/file");
}

TEST_F(UfsTest, RelativeSymlinkResolvesAgainstParent)
{
    ASSERT_TRUE(ufs().mkdir("/rel").ok());
    auto target = ufs().create("/rel/target", os::FileType::Regular);
    ASSERT_TRUE(ufs().symlink("target", "/rel/alias").ok());
    auto followed = ufs().namei("/rel/alias");
    ASSERT_TRUE(followed.ok());
    EXPECT_EQ(followed.value(), target.value());
}

TEST_F(UfsTest, SymlinkToDirectoryUsableMidPath)
{
    ASSERT_TRUE(ufs().mkdir("/dir1").ok());
    auto inner = ufs().create("/dir1/x", os::FileType::Regular);
    ASSERT_TRUE(ufs().symlink("/dir1", "/dlink").ok());
    auto followed = ufs().namei("/dlink/x");
    ASSERT_TRUE(followed.ok());
    EXPECT_EQ(followed.value(), inner.value());
}

TEST_F(UfsTest, SymlinkLoopDetected)
{
    ASSERT_TRUE(ufs().symlink("/loopB", "/loopA").ok());
    ASSERT_TRUE(ufs().symlink("/loopA", "/loopB").ok());
    EXPECT_EQ(ufs().namei("/loopA").status(),
              support::OsStatus::Loop);
}

TEST_F(UfsTest, TruncateShrinkFreesBlocksAndClamps)
{
    auto ino = ufs().create("/trunc", os::FileType::Regular);
    std::vector<u8> data(50000, 0x33);
    ASSERT_TRUE(ufs().writeFile(ino.value(), 0, data).ok());
    const u32 freeMid = ufs().freeBlocks();
    ASSERT_TRUE(ufs().truncate(ino.value(), 100).ok());
    EXPECT_GT(ufs().freeBlocks(), freeMid);
    EXPECT_EQ(ufs().iget(ino.value()).value().size, 100u);
    std::vector<u8> out(200);
    auto got = ufs().readFile(ino.value(), 0, out);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 100u);
}

TEST_F(UfsTest, TruncateGrowExtendsWithZeroes)
{
    auto ino = ufs().create("/grow", os::FileType::Regular);
    std::vector<u8> data(10, 0x44);
    ASSERT_TRUE(ufs().writeFile(ino.value(), 0, data).ok());
    ASSERT_TRUE(ufs().truncate(ino.value(), 5000).ok());
    std::vector<u8> out(5000);
    auto got = ufs().readFile(ino.value(), 0, out);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 5000u);
    EXPECT_EQ(out[5], 0x44);
    EXPECT_EQ(out[100], 0);
    EXPECT_EQ(out[4999], 0);
}

TEST_F(UfsTest, OutOfSpaceReportsNoSpace)
{
    // Fill the disk with large files until allocation fails.
    std::vector<u8> chunk(8ull << 20, 0x55);
    support::OsStatus status = support::OsStatus::Ok;
    for (int i = 0; i < 100; ++i) {
        auto ino = ufs().create("/fill" + std::to_string(i),
                                os::FileType::Regular);
        if (!ino.ok()) {
            status = ino.status();
            break;
        }
        auto wrote = ufs().writeFile(ino.value(), 0, chunk);
        if (!wrote.ok()) {
            status = wrote.status();
            break;
        }
    }
    EXPECT_EQ(status, support::OsStatus::NoSpace);
    // The system is still usable: remove one file and try again.
    ASSERT_TRUE(ufs().remove("/fill0").ok());
    EXPECT_TRUE(ufs().create("/after", os::FileType::Regular).ok());
}

TEST_F(UfsTest, UnmountMarksCleanRemountWorks)
{
    ASSERT_TRUE(ufs().create("/persist", os::FileType::Regular).ok());
    kernel_->shutdown();

    os::Kernel second(machine_,
                      os::systemPreset(os::SystemPreset::UfsDelayAll));
    second.boot(nullptr, false);
    EXPECT_FALSE(second.lastFsck().has_value()); // Clean: no fsck.
    EXPECT_TRUE(second.ufs().namei("/persist").ok());
}

TEST_F(UfsTest, MountRejectsGarbageDisk)
{
    sim::Machine other(test::smallMachine());
    os::Kernel kernel(other,
                      os::systemPreset(os::SystemPreset::UfsDelayAll));
    // Boot without formatting a never-formatted disk must panic
    // (cannot mount root).
    EXPECT_THROW(kernel.boot(nullptr, false), sim::CrashException);
}
