/**
 * @file
 * Ablation A4: shadow-paged metadata atomicity (section 2.3). When
 * the buffer cache is permanent, a crash in the middle of a metadata
 * update must not expose a torn block. Rio copies the block to a
 * shadow page and points the registry at the shadow for the duration
 * of the update; the warm reboot then restores the consistent copy.
 *
 * The experiment crashes the machine mid-update (half the directory
 * entry written), warm-reboots, and checks what the recovered file
 * system holds — with and without shadowing, across many seeds.
 *
 * Knobs: RIO_SEED, RIO_ABL_TRIALS (trials per arm, default 40); the
 * trials run serially. Defaults and help in knobTable()
 * (harness/hconfig.cc).
 */

#include <cstdio>
#include <cstring>

#include "core/system.hh"
#include "harness/hconfig.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

struct Outcome
{
    u64 consistent = 0; ///< Old value recovered intact.
    u64 torn = 0;       ///< Garbled block visible after reboot.
    u64 repaired = 0;   ///< fsck had to fix something.
};

Outcome
runTrials(bool shadow, u64 trials, u64 seedBase)
{
    Outcome outcome;
    for (u64 trial = 0; trial < trials; ++trial) {
        sim::MachineConfig machineConfig;
        machineConfig.physMemBytes = 16ull << 20;
        machineConfig.kernelHeapBytes = 4ull << 20;
        machineConfig.bufPoolBytes = 1ull << 20;
        machineConfig.diskBytes = 64ull << 20;
        machineConfig.swapBytes = 16ull << 20;
        machineConfig.seed = seedBase + trial;
        sim::Machine machine(machineConfig);

        core::System system(
            machine, os::systemPreset(os::SystemPreset::RioNoProtection),
            {.shadowMetadata = shadow});
        system.boot(true);

        // A directory with known contents, pushed through the cache.
        os::Process proc(1);
        auto &vfs = system.vfs();
        rio::wl::tolerate(vfs.mkdir("/d"));
        for (int i = 0; i < 5; ++i) {
            auto fd = vfs.open(proc, "/d/keep" + std::to_string(i),
                               os::OpenFlags::writeOnly());
            if (fd.ok()) {
                std::vector<u8> tiny(64, static_cast<u8>(i));
                rio::wl::tolerate(vfs.write(proc, fd.value(), tiny));
                rio::wl::tolerate(vfs.close(proc, fd.value()));
            }
        }

        // Crash in the middle of the next directory update: open the
        // window, write half the new entry, crash.
        auto &ufs = system.kernel().ufs();
        auto dirIno = ufs.namei("/d");
        auto dirInode = ufs.iget(dirIno.value());
        auto block = ufs.bmap(dirIno.value(), dirInode.value(), 0,
                              false);
        auto &buf = system.kernel().bufferCache();
        const auto ref = buf.bread(ufs.dev(), block.value());
        try {
            os::BufferCache::WriteWindow window(buf, ref);
            // Half-written dirent: inode number stored, name absent.
            window.store32(5 * os::Ufs::kDirentSize, 4242);
            machine.crash(sim::CrashCause::KernelPanic,
                          "ablation: crash mid metadata update");
        } catch (const sim::CrashException &) {
        }

        system.teardown();
        system.recover();

        // What does the recovered directory hold?
        auto listing = system.vfs().readdir("/d");
        bool sawTorn = false;
        u64 names = 0;
        if (listing.ok()) {
            for (const auto &entry : listing.value()) {
                ++names;
                if (entry.name.empty() || entry.ino == 4242)
                    sawTorn = true;
            }
        }
        const auto &fsck = system.kernel().lastFsck();
        const bool repaired =
            fsck.has_value() && fsck->errorsFixed() > 0;
        if (sawTorn)
            ++outcome.torn;
        else if (names == 5)
            ++outcome.consistent;
        if (repaired)
            ++outcome.repaired;
    }
    return outcome;
}

} // namespace

int
main()
{
    const harness::AblationKnobs knobs = harness::ablationKnobsFromEnv(40);

    std::printf("A4: shadow-paged metadata atomicity "
                "(%llu crashes mid directory update)\n\n",
                static_cast<unsigned long long>(knobs.trials));

    const Outcome with = runTrials(true, knobs.trials, knobs.seed * 101);
    const Outcome without = runTrials(false, knobs.trials, knobs.seed * 101);

    std::printf("%-18s %12s %8s %14s\n", "", "consistent", "torn",
                "fsck repaired");
    std::printf("%-18s %12llu %8llu %14llu\n", "with shadowing",
                static_cast<unsigned long long>(with.consistent),
                static_cast<unsigned long long>(with.torn),
                static_cast<unsigned long long>(with.repaired));
    std::printf("%-18s %12llu %8llu %14llu\n", "without shadowing",
                static_cast<unsigned long long>(without.consistent),
                static_cast<unsigned long long>(without.torn),
                static_cast<unsigned long long>(without.repaired));

    std::printf("\nWith shadowing the registry points at the "
                "consistent pre-update copy for\nthe whole window, so "
                "the warm reboot restores intact metadata; without "
                "it,\nthe mid-update block is unrecoverable (skipped) "
                "and fsck must repair.\n");
    return 0;
}
