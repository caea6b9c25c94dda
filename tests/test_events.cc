/**
 * @file
 * The machine-wide event hook (sim/event.hh): every kind reaches the
 * one subscriber with its documented {a, b}, swap writes never do,
 * and a recording-only subscriber leaves the run byte-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "os/kernel.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;
using sim::EventKind;

namespace
{

/** A row `a` that matches any value (journal home blocks). */
constexpr u64 kAny = ~0ull;

struct Want
{
    EventKind kind;
    u64 a;
    u64 b;
};

/**
 * One store on each device, a warm reboot of an empty registry, an
 * ext3-ordered commit, crash, replay and checkpoint, then one
 * shadowed Rio metadata update. @return The events it must produce;
 * the first three in order, right at the start.
 */
std::vector<Want>
scenario(sim::Machine &machine)
{
    const std::vector<u8> bytes(2 * sim::kSectorSize, 0x5c);
    machine.bus().store32(sim::kKsegBase | 64, 1);
    EXPECT_EQ(machine.disk().write(8, 2, bytes, machine.clock()),
              sim::DiskStatus::Ok);
    EXPECT_EQ(machine.swap().write(8, 2, bytes, machine.clock()),
              sim::DiskStatus::Ok);
    machine.nv()->write(128, std::span(bytes).first(17),
                        machine.clock());

    const os::KernelConfig config =
        os::systemPreset(os::SystemPreset::JournalOrdered);
    core::WarmReboot warm(machine);
    core::WarmRebootReport report = warm.dumpAndRestoreMetadata();
    auto kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(nullptr, true);
    warm.restoreData(kernel->vfs(), report);

    os::Process proc(1);
    const auto fsyncFile = [&](const char *path) {
        auto &vfs = kernel->vfs();
        auto fd = vfs.open(proc, path, os::OpenFlags::writeOnly());
        wl::tolerate(vfs.write(proc, fd.value(), bytes));
        wl::tolerate(vfs.fsync(proc, fd.value()));
        wl::tolerate(vfs.close(proc, fd.value()));
    };
    const u64 seq = kernel->journal().transactionsCommitted() + 1;
    fsyncFile("/a");
    kernel->fsDisk().drain(machine.clock());
    try {
        machine.crash(sim::CrashCause::KernelPanic, "events");
    } catch (const sim::CrashException &) {
    }
    kernel.reset();
    machine.reset(sim::ResetKind::Warm);
    os::JournalReplayStats stats;
    const u64 applied = os::Journal::replay(
        machine.disk(), machine.clock(), {}, &stats);
    kernel = std::make_unique<os::Kernel>(machine, config);
    kernel->boot(nullptr, false);
    fsyncFile("/b");
    kernel->journal().checkpointNow();
    const u64 head = 1 + stats.transactions +
                     kernel->journal().transactionsCommitted();
    kernel.reset();

    core::RioOptions options;
    options.protection = os::ProtectionMode::Off;
    options.maintainChecksums = true;
    core::RioSystem rio(machine, options);
    rio.activate();
    const Addr page = machine.mem().region(sim::RegionKind::BufPool).base;
    const Addr entry =
        machine.mem().region(sim::RegionKind::Registry).base;
    rio.install(page, {os::CacheKind::Metadata, 1, 0, 0, 9, 100});
    rio.setDirty(page, true);
    os::WriteWindow window = rio.beginWrite(page);
    const Addr shadow = rio.entryFor(page)->shadowAddr;
    std::move(window).commit(100);
    rio.deactivate();

    // 16 MB of memory dumps in 16 chunks; the registry is empty.
    return {{EventKind::CheckedStore, 64, 4},
            {EventKind::DiskWrite, 8, 2},
            {EventKind::NvWrite, 128, 17},
            {EventKind::RecoveryDump, 0, 16},
            {EventKind::RecoveryDump, 16, 16},
            {EventKind::RecoveryMetadataRestore, 0, 0},
            {EventKind::RecoveryDataRestore, 0, 0},
            {EventKind::RecoveryDone, 0, 1},
            {EventKind::JournalTxCommit, seq, 0},
            {EventKind::ReplayScanDone, stats.transactions, 0},
            {EventKind::ReplayApplyBlock, kAny, 0},
            {EventKind::ReplayApplyDone, applied, 0},
            {EventKind::ReplayJsbAdvance, 1 + stats.transactions, 0},
            {EventKind::JournalCheckpointWrite, kAny, 0},
            {EventKind::JournalCheckpointAdvance, head, 0},
            {EventKind::RioOpenPage, page, 0},
            {EventKind::RioClosePage, page, 0},
            {EventKind::RioShadowCopy, shadow, 0},
            {EventKind::RioFieldWrite,
             entry + core::RegistryLayout::kOffState, 0},
            {EventKind::RioCommit, page, 0}};
}

} // namespace

TEST(EventHook, EveryKindReachesTheSubscriberWithItsArguments)
{
    sim::MachineConfig config = test::smallMachine();
    config.nvBytes = 1ull << 20;

    sim::Machine plain(config);
    scenario(plain);
    sim::Machine machine(config);
    std::vector<sim::Event> seen;
    std::vector<Want> want;
    {
        const auto recorder =
            machine.subscribe([&seen](const sim::Event &event) {
                seen.push_back(event);
            });
        want = scenario(machine);
    }
    EXPECT_EQ(machine.clock().now(), plain.clock().now());
    EXPECT_EQ(test::platterFingerprint(machine.disk()),
              test::platterFingerprint(plain.disk()));

    ASSERT_GE(seen.size(), 3u);
    u32 kinds = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const Want &row = want[i];
        kinds |= sim::eventBit(row.kind);
        const auto match = [&row](const sim::Event &event) {
            return event.kind == row.kind && event.b == row.b &&
                   (row.a == kAny || event.a == row.a);
        };
        // The swap write between seen[1] and seen[2] must not show.
        EXPECT_TRUE(i < 3 ? match(seen[i])
                          : std::any_of(seen.begin(), seen.end(), match))
            << "row " << i << ": kind " << static_cast<int>(row.kind)
            << " {" << row.a << ", " << row.b << "}";
    }
    EXPECT_EQ(kinds, sim::kAllEvents) << "a kind has no row";
}
