/**
 * @file
 * Tests for the Rio core: registry maintenance, both protection
 * mechanisms (VM/TLB with the ABOX bit, and code patching), shadow
 * metadata updates, checksums, and the registry parser used by the
 * warm reboot.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

struct RioRig
{
    explicit RioRig(os::ProtectionMode mode, bool checksums = true)
        : machine(test::smallMachine())
    {
        config = os::systemPreset(os::SystemPreset::RioProtected);
        config.protection = mode;
        core::RioOptions options;
        options.protection = mode;
        options.maintainChecksums = checksums;
        rio = std::make_unique<core::RioSystem>(machine, options);
        kernel = std::make_unique<os::Kernel>(machine, config);
        kernel->boot(rio.get(), true);
    }

    sim::Machine machine;
    os::KernelConfig config;
    std::unique_ptr<core::RioSystem> rio;
    std::unique_ptr<os::Kernel> kernel;
    os::Process proc{1};
};

} // namespace

TEST(RioRegistry, TracksDataPagesWithIdentity)
{
    RioRig rig(os::ProtectionMode::Off);
    auto &vfs = rig.kernel->vfs();
    auto fd = vfs.open(rig.proc, "/file", os::OpenFlags::writeOnly());
    std::vector<u8> data(10000, 0x21);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    const InodeNo ino = vfs.stat("/file").value().ino;

    // Find the page caching offset 8192..16383 and check its entry.
    auto ref = rig.kernel->ubc().getPage(1, ino, 1, false);
    const Addr page = rig.kernel->ubc().pagePhys(ref);
    auto entry = rig.rio->entryFor(page);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->kind, core::RegistryLayout::kKindData);
    EXPECT_EQ(entry->ino, ino);
    EXPECT_EQ(entry->offset, sim::kPageSize);
    EXPECT_TRUE(entry->dirty);
    EXPECT_EQ(entry->size, 10000u - sim::kPageSize);
    EXPECT_NE(entry->checksum, 0u);
}

TEST(RioRegistry, ChecksumMatchesPageContents)
{
    RioRig rig(os::ProtectionMode::Off);
    auto &vfs = rig.kernel->vfs();
    auto fd = vfs.open(rig.proc, "/c", os::OpenFlags::writeOnly());
    std::vector<u8> data(4096, 0x37);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    auto sweep = rig.rio->verifyChecksums();
    EXPECT_GT(sweep.checked, 0u);
    EXPECT_EQ(sweep.mismatches, 0u);
}

TEST(RioRegistry, ChecksumCatchesDirectCorruption)
{
    RioRig rig(os::ProtectionMode::Off);
    auto &vfs = rig.kernel->vfs();
    auto fd = vfs.open(rig.proc, "/victim",
                       os::OpenFlags::writeOnly());
    std::vector<u8> data(4096, 0x44);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    const InodeNo ino = vfs.stat("/victim").value().ino;
    auto ref = rig.kernel->ubc().getPage(1, ino, 0, false);
    const Addr page = rig.kernel->ubc().pagePhys(ref);
    // A wild store that bypasses every legitimate write path.
    rig.machine.mem().raw()[page + 123] ^= 0xff;

    auto sweep = rig.rio->verifyChecksums();
    EXPECT_EQ(sweep.mismatches, 1u);
    ASSERT_EQ(sweep.badPages.size(), 1u);
    EXPECT_EQ(sweep.badPages[0], page);
}

TEST(RioRegistry, InvalidateFreesEntry)
{
    RioRig rig(os::ProtectionMode::Off);
    auto &vfs = rig.kernel->vfs();
    auto fd = vfs.open(rig.proc, "/gone", os::OpenFlags::writeOnly());
    std::vector<u8> data(100, 0x55);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    const InodeNo ino = vfs.stat("/gone").value().ino;
    auto ref = rig.kernel->ubc().getPage(1, ino, 0, false);
    const Addr page = rig.kernel->ubc().pagePhys(ref);
    ASSERT_TRUE(rig.rio->entryFor(page).has_value());

    rio::wl::tolerate(vfs.unlink("/gone"));
    EXPECT_FALSE(rig.rio->entryFor(page).has_value());
}

TEST(RioProtection, VmTlbStopsWildStoreToFileCache)
{
    RioRig rig(os::ProtectionMode::VmTlb);
    const Addr page =
        rig.machine.mem().region(sim::RegionKind::UbcPool).base;
    EXPECT_THROW(rig.machine.bus().store64(page, 0xbad),
                 sim::CrashException);
    EXPECT_EQ(rig.rio->stats().protectionSaves, 1u);
}

TEST(RioProtection, VmTlbStopsKsegBypass)
{
    RioRig rig(os::ProtectionMode::VmTlb);
    // The ABOX bit is set, so even a physical (KSEG) store faults.
    EXPECT_TRUE(rig.machine.cpu().mapKsegThroughTlb());
    const Addr page =
        rig.machine.mem().region(sim::RegionKind::UbcPool).base;
    EXPECT_THROW(
        rig.machine.bus().store64(sim::physToKseg(page), 0xbad),
        sim::CrashException);
}

TEST(RioProtection, RegistryItselfIsProtected)
{
    RioRig rig(os::ProtectionMode::VmTlb);
    const Addr reg =
        rig.machine.mem().region(sim::RegionKind::Registry).base;
    EXPECT_THROW(rig.machine.bus().store64(reg, 0xbad),
                 sim::CrashException);
}

TEST(RioProtection, LegitimateWritesStillWork)
{
    RioRig rig(os::ProtectionMode::VmTlb);
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> data(20000, 0x61);
    auto fd = vfs.open(rig.proc, "/ok", os::OpenFlags::writeOnly());
    ASSERT_TRUE(vfs.write(rig.proc, fd.value(), data).ok());
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    std::vector<u8> out(20000);
    auto rfd = vfs.open(rig.proc, "/ok", os::OpenFlags::readOnly());
    ASSERT_TRUE(vfs.read(rig.proc, rfd.value(), out).ok());
    EXPECT_EQ(out, data);
    EXPECT_EQ(rig.rio->stats().protectionSaves, 0u);
}

TEST(RioProtection, CodePatchingStopsFileCacheStores)
{
    RioRig rig(os::ProtectionMode::CodePatch);
    // KSEG is NOT forced through the TLB in this mode...
    EXPECT_FALSE(rig.machine.cpu().mapKsegThroughTlb());
    // ...but the inserted check stops the store anyway.
    const Addr page =
        rig.machine.mem().region(sim::RegionKind::BufPool).base;
    EXPECT_THROW(rig.machine.bus().store64(page, 0xbad),
                 sim::CrashException);
    EXPECT_THROW(
        rig.machine.bus().store64(sim::physToKseg(page) + 8, 0xbad),
        sim::CrashException);
    EXPECT_EQ(rig.rio->stats().protectionSaves, 2u);
}

TEST(RioProtection, CodePatchingAllowsNormalOperation)
{
    RioRig rig(os::ProtectionMode::CodePatch);
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> data(10000, 0x71);
    auto fd = vfs.open(rig.proc, "/cp", os::OpenFlags::writeOnly());
    ASSERT_TRUE(vfs.write(rig.proc, fd.value(), data).ok());
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    EXPECT_EQ(rig.rio->stats().protectionSaves, 0u);
}

TEST(RioProtection, OffModeAllowsCorruption)
{
    RioRig rig(os::ProtectionMode::Off);
    const Addr page =
        rig.machine.mem().region(sim::RegionKind::UbcPool).base;
    EXPECT_NO_THROW(rig.machine.bus().store64(page, 0xbad));
    EXPECT_EQ(rig.rio->stats().protectionSaves, 0u);
}

TEST(RioProtection, DeactivateRestoresWritability)
{
    RioRig rig(os::ProtectionMode::VmTlb);
    rig.rio->deactivate();
    const Addr page =
        rig.machine.mem().region(sim::RegionKind::UbcPool).base;
    EXPECT_NO_THROW(rig.machine.bus().store64(page, 0x11));
    EXPECT_FALSE(rig.machine.cpu().mapKsegThroughTlb());
}

TEST(RioShadow, MetadataUpdateUsesShadow)
{
    RioRig rig(os::ProtectionMode::VmTlb);
    const u64 shadowsBefore = rig.rio->stats().shadowCopies;
    rio::wl::tolerate(rig.kernel->vfs().mkdir("/newdir"));
    EXPECT_GT(rig.rio->stats().shadowCopies, shadowsBefore);
}

TEST(RioShadow, EntryIsChangingDuringWindowActiveAfter)
{
    RioRig rig(os::ProtectionMode::Off);
    auto &buf = rig.kernel->bufferCache();
    auto ref = buf.bread(1, rig.kernel->ufs().geometry().itStart);
    const Addr page = buf.pageAddr(ref);
    {
        // First window dirties the block; shadowing only covers
        // dirty metadata (clean blocks are recoverable from disk).
        os::BufferCache::WriteWindow window(buf, ref);
        window.store8(8001, 7);
    }
    {
        os::BufferCache::WriteWindow window(buf, ref);
        auto entry = rig.rio->entryFor(page);
        ASSERT_TRUE(entry.has_value());
        EXPECT_EQ(entry->state, core::RegistryLayout::kStateChanging);
        EXPECT_NE(entry->shadowAddr, 0u);
        window.store8(8000, 1);
    }
    auto entry = rig.rio->entryFor(page);
    EXPECT_EQ(entry->state, core::RegistryLayout::kStateActive);
    EXPECT_EQ(entry->shadowAddr, 0u);
    buf.brelse(ref);
}

namespace
{

/**
 * Dirty the first inode-table block, then update it again and crash
 * at the RioCommit event: in endWrite after size, checksum and
 * shadow := 0 are stored but before the state flips back to Active
 * (the commit window). @return The block's page, or 0 when the
 * crash never fired.
 */
Addr
crashInCommitWindow(RioRig &rig)
{
    auto &buf = rig.kernel->bufferCache();
    auto ref = buf.bread(1, rig.kernel->ufs().geometry().itStart);
    const Addr page = buf.pageAddr(ref);
    {
        // Dirty the block first: only dirty metadata is shadowed.
        os::BufferCache::WriteWindow window(buf, ref);
        window.store8(8001, 7);
    }
    bool fired = false;
    const auto crasher = rig.machine.subscribe(
        [&](const sim::Event &) {
            if (fired)
                return;
            fired = true;
            rig.machine.crash(sim::CrashCause::KernelPanic,
                              "commit-window crash");
        },
        sim::eventBit(sim::EventKind::RioCommit));
    try {
        os::BufferCache::WriteWindow window(buf, ref);
        window.store8(8000, 1);
    } catch (const sim::CrashException &crash) {
        rig.machine.noteCrash(crash.when());
        return page;
    }
    return 0;
}

} // namespace

TEST(RioShadow, CrashInCommitWindowIsRecoverableFromThePageItself)
{
    // The endWrite store order is size, checksum, shadow := 0,
    // state := Active. A crash between the shadow clear and the
    // flip leaves a Changing entry with no shadow — but the update
    // itself is complete (closePage already ran), so the page
    // matches the entry checksum and the hardened restore must
    // recover it via the physAddr fallback. The trusting policy is
    // shadow-or-bust and must give the entry up.
    RioRig rig(os::ProtectionMode::Off);
    const Addr page = crashInCommitWindow(rig);
    ASSERT_NE(page, 0u);

    // The surviving image shows exactly the commit window: entry
    // still Changing, shadow already cleared, checksum current.
    auto entry = rig.rio->entryFor(page);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->state, core::RegistryLayout::kStateChanging);
    EXPECT_EQ(entry->shadowAddr, 0u);

    rig.rio->deactivate();
    rig.rio.reset();
    rig.kernel.reset();
    rig.machine.reset(sim::ResetKind::Warm);

    core::WarmReboot warm(rig.machine); // hardened
    auto report = warm.dumpAndRestoreMetadata();
    EXPECT_EQ(report.metadataFromPhysFallback, 1u)
        << "the completed update must be restored from the page";
    EXPECT_EQ(report.metadataUnrestorable, 0u);

    // Re-run the same scenario under the trusting restore: with the
    // shadow already cleared it has no source it is willing to use.
    {
        RioRig rig2(os::ProtectionMode::Off);
        ASSERT_NE(crashInCommitWindow(rig2), 0u);
        rig2.rio->deactivate();
        rig2.rio.reset();
        rig2.kernel.reset();
        rig2.machine.reset(sim::ResetKind::Warm);

        core::WarmReboot trusting(rig2.machine,
                                  core::RestorePolicy::trusting());
        auto trustingReport = trusting.dumpAndRestoreMetadata();
        EXPECT_EQ(trustingReport.metadataUnrestorable, 1u)
            << "trusting is shadow-or-bust in the commit window";
    }
}

TEST(RioRegistry, ParserSkipsCorruptEntries)
{
    RioRig rig(os::ProtectionMode::Off);
    auto &vfs = rig.kernel->vfs();
    auto fd = vfs.open(rig.proc, "/p", os::OpenFlags::writeOnly());
    std::vector<u8> data(100, 1);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    auto clean = core::parseRegistry(rig.machine.mem().image(),
                                     rig.machine.mem());
    EXPECT_GT(clean.entries.size(), 0u);
    EXPECT_EQ(clean.corruptEntries, 0u);

    // Scribble one live entry's physAddr field: the parser must
    // reject exactly that entry.
    const auto &reg =
        rig.machine.mem().region(sim::RegionKind::Registry);
    for (u64 index = 0;; ++index) {
        const Addr base =
            reg.base + index * core::RegistryLayout::kEntrySize;
        u32 magic;
        std::memcpy(&magic, rig.machine.mem().raw() + base, 4);
        if (magic == core::RegistryLayout::kMagic) {
            const u64 garbage = 0x1357;
            std::memcpy(rig.machine.mem().raw() + base +
                            core::RegistryLayout::kOffPhysAddr,
                        &garbage, 8);
            break;
        }
    }
    auto damaged = core::parseRegistry(rig.machine.mem().image(),
                                       rig.machine.mem());
    EXPECT_EQ(damaged.corruptEntries, 1u);
    EXPECT_EQ(damaged.entries.size(), clean.entries.size() - 1);
}

TEST(RioRegistry, ProtectionOverheadIsSmall)
{
    // Section 4's claim: protection adds essentially no overhead.
    auto run = [&](os::ProtectionMode mode) {
        RioRig rig(mode, /*checksums=*/false);
        auto &vfs = rig.kernel->vfs();
        const SimNs start = rig.machine.clock().now();
        std::vector<u8> data(32 * 1024, 0x5a);
        for (int i = 0; i < 50; ++i) {
            auto fd = vfs.open(rig.proc, "/f" + std::to_string(i),
                               os::OpenFlags::writeOnly());
            rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
            rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
        }
        return static_cast<double>(rig.machine.clock().now() - start);
    };
    const double off = run(os::ProtectionMode::Off);
    const double on = run(os::ProtectionMode::VmTlb);
    // The paper's own Table 2 shows Rio-with-protection ~4% slower
    // than Rio-without on the metadata-heavy cp+rm (25s vs 24s);
    // bound the same delta at 10% on this write-only microbenchmark.
    EXPECT_LT(on, off * 1.10);
}
