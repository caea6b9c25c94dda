/**
 * @file
 * Rio's page checksums as every observer of the memory image sees
 * them. endWrite may leave a page's sum uncomputed until something
 * could observe it (DESIGN.md, "Page checksums"); these tests pin
 * what each observer gets: a bus load of the field, a bus store into
 * the page or onto the field, verifyChecksums, the image teardown
 * hands the warm reboot, and the rio-nv mirror. The pinned digests
 * are those of a Rio that sums every page inside endWrite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/system.hh"
#include "os/dma.hh"
#include "sim/machine.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

using L = core::RegistryLayout;

struct Rig
{
    explicit Rig(os::ProtectionMode mode,
                 sim::MachineConfig config = test::smallMachine(),
                 bool nvMirror = false)
        : machine(config), system(machine, kernelConfig(mode, nvMirror),
                                  {.maintainChecksums = true})
    {
        system.boot(true);
    }

    static os::KernelConfig
    kernelConfig(os::ProtectionMode mode, bool nvMirror)
    {
        os::KernelConfig config = test::rioPreset(mode);
        config.rioNvMirror = nvMirror;
        return config;
    }

    core::RioSystem &rio() { return *system.rio(); }
    os::Kernel &kernel() { return system.kernel(); }

    /** A UBC page holding a freshly written 8 KiB file. */
    Addr dataPage() { return dataPageOf(system); }

    static Addr
    dataPageOf(core::System &system)
    {
        auto &vfs = system.vfs();
        os::Process proc(1);
        auto fd = vfs.open(proc, "/victim", os::OpenFlags::writeOnly());
        std::vector<u8> data(sim::kPageSize, 0x2d);
        rio::wl::tolerate(vfs.write(proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(proc, fd.value()));
        const InodeNo ino = vfs.stat("/victim").value().ino;
        auto ref = system.kernel().ubc().getPage(1, ino, 0, false);
        return system.kernel().ubc().pagePhys(ref);
    }

    /** The first inode-table block, dirtied so a window shadows it. */
    Addr
    dirtyMetadataPage()
    {
        auto &buf = kernel().bufferCache();
        auto ref = buf.bread(1, kernel().ufs().geometry().itStart);
        {
            os::BufferCache::WriteWindow window(buf, ref);
            window.store8(8001, 7);
        }
        return buf.pageAddr(ref);
    }

    /** Run @p inside in a write window on @p page, then crash the
     *  kernel with the window still open, as System::crash does: the
     *  crash unwinds through the window, so it never commits. */
    template <typename Fn>
    void
    crashInWindow(Addr page, const char *why, Fn &&inside)
    {
        try {
            os::WriteWindow window = rio().beginWrite(page);
            inside();
            machine.crash(sim::CrashCause::KernelPanic, why);
        } catch (const sim::CrashException &) {
        }
        system.teardown();
    }

    sim::Machine machine;
    core::System system;
    os::Process proc{1};
};

/** Physical address of @p page's registry entry. */
Addr
entryOf(sim::Machine &machine, Addr page)
{
    const auto &mem = machine.mem();
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    const u64 index =
        buf.contains(page)
            ? (page - buf.base) >> sim::kPageShift
            : buf.pages() + ((page - ubc.base) >> sim::kPageShift);
    return mem.region(sim::RegionKind::Registry).base +
           index * L::kEntrySize;
}

Addr
checksumField(sim::Machine &machine, Addr page)
{
    return entryOf(machine, page) + L::kOffChecksum;
}

/** The checksum field exactly as the memory image holds it. */
u32
imageField(sim::Machine &machine, Addr page)
{
    return support::loadLE<u32>(machine.mem().image(),
                                checksumField(machine, page));
}

/** The sum @p page's current bytes deserve under its entry. */
u32
sumOfPage(sim::Machine &machine, Addr page)
{
    const auto image = machine.mem().image();
    const Addr entry = entryOf(machine, page);
    const u32 size = support::loadLE<u32>(image, entry + L::kOffSize);
    const BlockNo block =
        support::loadLE<u32>(image, entry + L::kOffDiskBlock);
    const u64 n = std::min<u64>(size, sim::kPageSize);
    return core::bindChecksum(
        support::checksum32(image.subspan(page, n)), block);
}

u32
registryDigest(sim::Machine &machine)
{
    const auto &reg = machine.mem().region(sim::RegionKind::Registry);
    return support::checksum32(
        machine.mem().image().subspan(reg.base, reg.size));
}

u64
fold(u64 acc, u32 digest)
{
    return acc * 1099511628211ull + digest;
}

/** Flip one byte of @p page through the bus: a wild CPU store. */
void
wildStore(sim::Machine &machine, Addr page, u64 off)
{
    machine.bus().store8(page + off,
                         machine.mem().image()[page + off] ^ 0xff);
}

constexpr os::ProtectionMode kModes[] = {
    os::ProtectionMode::Off,
    os::ProtectionMode::VmTlb,
    os::ProtectionMode::CodePatch,
};

} // namespace

TEST(LazyChecksum, StoreIntoSummedPageIsCaughtByVerify)
{
    Rig rig(os::ProtectionMode::Off);
    const Addr page = rig.dataPage();
    const u32 before = sumOfPage(rig.machine, page);
    wildStore(rig.machine, page, 123);

    const auto sweep = rig.rio().verifyChecksums();
    EXPECT_EQ(sweep.mismatches, 1u);
    ASSERT_EQ(sweep.badPages.size(), 1u);
    EXPECT_EQ(sweep.badPages[0], page);
    EXPECT_EQ(rig.rio().entryFor(page)->checksum, before);
}

TEST(LazyChecksum, StoreIntoSummedDataPageSurvivesTeardown)
{
    Rig rig(os::ProtectionMode::Off);
    const Addr page = rig.dataPage();
    const u32 before = sumOfPage(rig.machine, page);
    wildStore(rig.machine, page, 4000);

    rig.system.crash("lazy checksum: data");
    EXPECT_EQ(imageField(rig.machine, page), before)
        << "the field must keep the sum of the bytes endWrite saw";
    const auto report = rig.system.recover();
    EXPECT_EQ(report.dataChecksumBad, 1u);
}

TEST(LazyChecksum, StoreIntoSummedMetadataPageIsQuarantined)
{
    Rig rig(os::ProtectionMode::Off);
    const Addr page = rig.dirtyMetadataPage();
    const u32 before = sumOfPage(rig.machine, page);
    wildStore(rig.machine, page, 100);

    rig.system.crash("lazy checksum: metadata");
    EXPECT_EQ(imageField(rig.machine, page), before);
    const auto report = rig.system.restoreMetadata(); // hardened
    EXPECT_GE(report.metadataChecksumBad, 1u);
    EXPECT_GE(report.recovery.metadataQuarantined, 1u);
}

TEST(LazyChecksum, DmaInsideAWindowLeavesTheOwedSumIntact)
{
    Rig rig(os::ProtectionMode::VmTlb);
    const Addr page = rig.dataPage();
    const u32 before = sumOfPage(rig.machine, page);

    // A disk read lands in the open window, bypassing the bus.
    rig.crashInWindow(page, "lazy checksum: dma", [&] {
        const std::vector<u8> block(sim::kPageSize, 0x77);
        os::dmaWrite(rig.machine.bus(), page, block);
    });
    EXPECT_EQ(imageField(rig.machine, page), before);
}

TEST(LazyChecksum, WildStoreOntoTheFieldSurvivesTeardown)
{
    Rig rig(os::ProtectionMode::Off);
    const Addr data = rig.dataPage();
    const Addr meta = rig.dirtyMetadataPage();
    const u32 metaSum = sumOfPage(rig.machine, meta);

    // A whole-field store replaces the sum; a one-byte store lands
    // on top of it.
    rig.machine.bus().store32(checksumField(rig.machine, data),
                              0xdeadbeef);
    rig.machine.bus().store8(checksumField(rig.machine, meta) + 1, 0x5a);

    rig.system.crash("lazy checksum: field");
    EXPECT_EQ(imageField(rig.machine, data), 0xdeadbeefu);
    EXPECT_EQ(imageField(rig.machine, meta),
              (metaSum & 0xffff00ffu) | 0x5a00u);
}

TEST(LazyChecksum, BusLoadOfTheFieldReturnsTheSum)
{
    for (const auto mode :
         {os::ProtectionMode::Off, os::ProtectionMode::VmTlb}) {
        Rig rig(mode);
        const Addr data = rig.dataPage();
        const Addr meta = rig.dirtyMetadataPage();
        EXPECT_EQ(rig.machine.bus().load32(checksumField(rig.machine,
                                                         data)),
                  sumOfPage(rig.machine, data));
        EXPECT_EQ(rig.machine.bus().load32(checksumField(rig.machine,
                                                         meta)),
                  sumOfPage(rig.machine, meta));
    }
}

namespace
{

enum class Victim
{
    Metadata, ///< Dirty buffer: the window runs on a shadow copy.
    Data,     ///< UBC page: no shadow.
};

/** Crash inside an open write window on @p victim. */
u32
crashInsideWindow(os::ProtectionMode mode, Victim victim)
{
    Rig rig(mode);
    const Addr page = victim == Victim::Metadata ? rig.dirtyMetadataPage()
                                                 : rig.dataPage();
    rig.crashInWindow(page, "lazy checksum: inside window",
                      [&] { rig.machine.bus().store8(page + 100, 9); });
    return registryDigest(rig.machine);
}

/**
 * Crash at the @p at-th registry field store, field-write or commit
 * event of endWrite on @p victim. @return The registry digest after
 * teardown, or nullopt when endWrite has fewer events.
 */
std::optional<u32>
crashInsideEndWrite(os::ProtectionMode mode, Victim victim, u64 at)
{
    Rig rig(mode);
    const Addr page = victim == Victim::Metadata ? rig.dirtyMetadataPage()
                                                 : rig.dataPage();
    os::WriteWindow window = rig.rio().beginWrite(page);
    rig.machine.bus().store8(page + 100, 9);
    u64 seen = 0;
    bool crashed = false;
    {
        const auto crasher = rig.machine.subscribe(
            [&](const sim::Event &) {
                if (crashed || seen++ != at)
                    return;
                crashed = true;
                rig.machine.crash(sim::CrashCause::KernelPanic,
                                  "lazy checksum: inside endWrite");
            },
            sim::eventBit(sim::EventKind::CheckedStore) |
                sim::eventBit(sim::EventKind::RioFieldWrite) |
                sim::eventBit(sim::EventKind::RioCommit));
        try {
            std::move(window).commit(sim::kPageSize);
        } catch (const sim::CrashException &crash) {
            rig.machine.noteCrash(crash.when());
        }
    }
    if (!crashed)
        return std::nullopt;
    rig.system.teardown();
    return registryDigest(rig.machine);
}

} // namespace

TEST(LazyChecksum, CrashInsideWindowsLeavesPinnedRegistry)
{
    const u64 expected[] = {
        0xbcf51153b84dfb0aull, // Off
        0xbcf51152e96d4c5bull, // VmTlb
        0xbcf51152ef55ce0dull, // CodePatch
    };
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
        u64 acc = 0;
        for (const auto victim : {Victim::Metadata, Victim::Data})
            acc = fold(acc, crashInsideWindow(kModes[m], victim));
        EXPECT_EQ(acc, expected[m]) << "mode " << m;
    }
}

TEST(LazyChecksum, CrashAtEveryEndWriteEventLeavesPinnedRegistry)
{
    const u64 expected[] = {
        0x62eaba5c52ceb84eull, // Off
        0xb4cdb97072a136edull, // VmTlb
        0x8bb81f216823e3feull, // CodePatch
    };
    const u64 expectedPoints[] = {18, 18, 18};
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
        u64 acc = 0;
        u64 points = 0;
        for (const auto victim : {Victim::Metadata, Victim::Data}) {
            for (u64 at = 0;; ++at) {
                const auto digest =
                    crashInsideEndWrite(kModes[m], victim, at);
                if (!digest)
                    break;
                acc = fold(acc, *digest);
                ++points;
            }
        }
        EXPECT_EQ(points, expectedPoints[m]) << "mode " << m;
        EXPECT_EQ(acc, expected[m]) << "mode " << m;
    }
}

TEST(LazyChecksum, NvMirrorBytesArePinned)
{
    sim::MachineConfig config = test::smallMachine();
    config.nvBytes = 2ull << 20;
    Rig rig(os::ProtectionMode::VmTlb, config, /*nvMirror=*/true);
    rig.dataPage();
    rig.dirtyMetadataPage();
    auto &vfs = rig.kernel().vfs();
    rio::wl::tolerate(vfs.mkdir("/d"));
    for (int i = 0; i < 3; ++i) {
        auto fd = vfs.open(rig.proc, "/d/f" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        std::vector<u8> data(3000 + 1000 * i, static_cast<u8>(i + 1));
        rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    }
    rig.system.crash("lazy checksum: nv");
    EXPECT_EQ(support::checksum32(rig.machine.nv()->image()), 2857942373u);
    EXPECT_EQ(registryDigest(rig.machine), 3502986689u);
}

TEST(LazyChecksum, RewritesSumNothingUntilObserved)
{
    Rig rig(os::ProtectionMode::VmTlb);
    const Addr meta = rig.dirtyMetadataPage();
    const Addr data = rig.dataPage();
    auto &buf = rig.kernel().bufferCache();
    auto ref = buf.bread(1, rig.kernel().ufs().geometry().itStart);
    ASSERT_EQ(buf.pageAddr(ref), meta);

    // A dirty buffer's windows run on a shadow copy: the owed sum
    // reads the shadow, and the next endWrite replaces it unread.
    const u64 before = rig.rio().stats().pagesSummed;
    for (int i = 0; i < 20; ++i) {
        os::BufferCache::WriteWindow window(buf, ref);
        window.store8(100 + i, static_cast<u8>(i));
    }
    // A data page has no shadow: its windows journal what they
    // overwrite instead.
    for (int i = 0; i < 5; ++i) {
        os::WriteWindow window = rig.rio().beginWrite(data);
        rig.machine.bus().store8(data + i, static_cast<u8>(i));
        std::move(window).commit(sim::kPageSize);
    }
    EXPECT_EQ(rig.rio().stats().pagesSummed, before);

    EXPECT_EQ(rig.rio().entryFor(meta)->checksum,
              sumOfPage(rig.machine, meta));
    EXPECT_EQ(rig.rio().entryFor(data)->checksum,
              sumOfPage(rig.machine, data));
    EXPECT_EQ(rig.rio().stats().pagesSummed, before + 2);
}

TEST(LazyChecksum, CrashAfterJournaledChangesKeepsTheOldSum)
{
    Rig rig(os::ProtectionMode::Off);
    const Addr page = rig.dataPage();
    const u32 before = sumOfPage(rig.machine, page);

    // Overlapping changes, a bulk one among them: undone newest
    // first, they give back the bytes endWrite summed.
    rig.crashInWindow(page, "lazy checksum: journal", [&] {
        auto &bus = rig.machine.bus();
        bus.store32(page + 8, 0x01020304);
        const std::vector<u8> run(300, 0x6e);
        bus.writeBytes(page + 6, run);
        bus.store8(page + 10, 0x99);
        bus.set(page + 4000, 0, 500);
    });
    EXPECT_EQ(imageField(rig.machine, page), before);

    // A window that rewrites the page more than once stops
    // journaling and sums the old bytes back out.
    Rig again(os::ProtectionMode::Off);
    const Addr other = again.dataPage();
    const u32 old = sumOfPage(again.machine, other);
    const u64 summed = again.rio().stats().pagesSummed;
    again.crashInWindow(other, "lazy checksum: journal overflow", [&] {
        const std::vector<u8> page1(sim::kPageSize, 0x11);
        const std::vector<u8> page2(sim::kPageSize, 0x22);
        again.machine.bus().writeBytes(other, page1);
        EXPECT_EQ(again.rio().stats().pagesSummed, summed);
        again.machine.bus().writeBytes(other, page2);
        EXPECT_EQ(again.rio().stats().pagesSummed, summed + 1);
    });
    EXPECT_EQ(imageField(again.machine, other), old);
}

TEST(LazyChecksum, WatchIsArmedOnlyWhileASumIsOwed)
{
    {
        sim::Machine machine(test::smallMachine());
        core::System system(machine,
                            test::rioPreset(os::ProtectionMode::VmTlb));
        system.boot(true);
        Rig::dataPageOf(system);
        EXPECT_EQ(machine.bus().watch(), nullptr)
            << "no checksums, nothing owed";
    }
    Rig rig(os::ProtectionMode::VmTlb);
    rig.dataPage();
    EXPECT_NE(rig.machine.bus().watch(), nullptr);
    rig.rio().verifyChecksums();
    EXPECT_EQ(rig.machine.bus().watch(), nullptr);
    rig.dataPage();
    rig.system.teardown();
    EXPECT_EQ(rig.machine.bus().watch(), nullptr);
}
