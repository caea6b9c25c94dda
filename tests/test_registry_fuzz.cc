/**
 * @file
 * Registry-corruption recovery sweep: crash a Rio kernel, scribble
 * the surviving memory image with the post-crash corruption stage
 * (fault/postcrash.hh), then require that the hardened warm reboot
 * (a) never pushes a checksum-mismatched or contested metadata page
 * to disk — the never-restore-known-bad invariant, checked against
 * an independent host-side oracle that snapshots the threatened
 * disk blocks — (b) accounts for every dirty metadata entry exactly
 * once, and (c) leaves a volume that boots, repairs and supports
 * normal use.
 *
 * Set RIO_FUZZ_PROFILE=1 to print one damage/decision line per seed
 * (used to promote interesting seeds into registry_fuzz_corpus.hh).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/registry.hh"
#include "core/system.hh"
#include "fault/postcrash.hh"
#include "harness/oracle.hh"
#include "registry_fuzz_corpus.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

sim::MachineConfig
machineConfig(u64 seed)
{
    sim::MachineConfig c;
    c.physMemBytes = 16ull << 20;
    c.kernelHeapBytes = 4ull << 20;
    c.bufPoolBytes = 1ull << 20;
    c.diskBytes = 32ull << 20;
    c.swapBytes = 16ull << 20;
    c.seed = seed;
    return c;
}

} // namespace

class RegistryFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(RegistryFuzz, HardenedRecoverySurvivesACorruptedImage)
{
    const u64 seed = GetParam();
    sim::Machine machine(machineConfig(seed));
    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioNoProtection),
                        {.maintainChecksums = true});
    system.boot(true);

    // A deterministic burst of activity, left unflushed: dirty
    // dirents, inodes, bitmaps and data pages for the crash to
    // strand in memory.
    os::Process proc(1);
    auto &vfs = system.vfs();
    support::Rng wrng(seed * 48271 + 11);
    for (int i = 0; i < 10; ++i) {
        const std::string dir = "/d" + std::to_string(i % 4);
        rio::wl::tolerate(vfs.mkdir(dir));
        auto fd = vfs.open(proc, dir + "/f" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        if (fd.ok()) {
            std::vector<u8> data(wrng.between(200, 24000));
            wrng.fill(data);
            rio::wl::tolerate(vfs.write(proc, fd.value(), data));
            rio::wl::tolerate(vfs.close(proc, fd.value()));
        }
        if (i == 6)
            rio::wl::tolerate(vfs.unlink("/d2/f6"));
    }

    system.crash("fuzz");

    // Damage the surviving image the way an adversarial outage would.
    fault::PostCrashConfig postConfig;
    fault::PostCrashCorruptor corruptor(
        machine, support::Rng(seed * 2654435761ull + 1), postConfig);
    const auto damage = corruptor.corrupt();

    // Host-side oracle, independent of the restore path (shared with
    // the crash campaign and crashmc — see harness/oracle.hh): parse
    // the damaged registry and snapshot the disk block of every
    // entry the hardened policy must refuse.
    const auto capture = harness::captureRecoveryOracle(
        machine, core::RestorePolicy::hardened());

    auto report = system.restoreMetadata(); // RestorePolicy::hardened()

    const auto verdict =
        harness::checkRecoveryOracle(machine, capture, report);

    // (a) Never restore known-bad: every block the oracle froze is
    // byte-identical after the metadata restore.
    for (const u64 block : verdict.violatedBlocks) {
        ADD_FAILURE() << "known-bad metadata reached disk block "
                      << block << " at seed " << seed;
    }

    // (b) Exact accounting: every dirty metadata entry is restored,
    // quarantined, rejected as contested, or unrestorable.
    EXPECT_TRUE(verdict.accountingExact)
        << "restore accounting leaks entries at seed " << seed;

    if (std::getenv("RIO_FUZZ_PROFILE") != nullptr) {
        std::printf(
            "seed %llu: flips %llu magics %llu claims %llu xpages "
            "%llu smashed %llu shadows %llu tail %llu | quarantined "
            "%llu contested %llu bounds %llu shadowBad %llu "
            "unrestorable %llu frozen %zu\n",
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(
                damage.registryBitsFlipped),
            static_cast<unsigned long long>(damage.magicsSmashed),
            static_cast<unsigned long long>(damage.claimsCrossLinked),
            static_cast<unsigned long long>(damage.pagesCrossLinked),
            static_cast<unsigned long long>(
                damage.pageBytesSmashed / sim::kPageSize),
            static_cast<unsigned long long>(damage.shadowsSmashed),
            static_cast<unsigned long long>(damage.tailBytesZeroed),
            static_cast<unsigned long long>(
                report.recovery.metadataQuarantined),
            static_cast<unsigned long long>(
                report.recovery.duplicateClaims),
            static_cast<unsigned long long>(
                report.recovery.boundsViolations),
            static_cast<unsigned long long>(
                report.recovery.shadowChecksumBad),
            static_cast<unsigned long long>(
                report.metadataUnrestorable),
            capture.frozen.size());
    }

    // (c) The recovered volume boots, fsck repairs what the
    // quarantine left stale, and normal operation works.
    try {
        system.boot(false);
    } catch (const sim::CrashException &crash) {
        FAIL() << "recovered volume failed to boot at seed " << seed
               << ": " << crash.what();
    }
    system.restoreData(report);

    auto &vfs2 = system.vfs();
    os::Process proc2(2);
    auto fd = vfs2.open(proc2, "/fresh", os::OpenFlags::writeOnly());
    ASSERT_TRUE(fd.ok());
    std::vector<u8> data(4096, 0x5d);
    ASSERT_TRUE(vfs2.write(proc2, fd.value(), data).ok());
    ASSERT_TRUE(vfs2.close(proc2, fd.value()).ok());
    std::vector<u8> out(4096);
    auto rfd = vfs2.open(proc2, "/fresh", os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    ASSERT_TRUE(vfs2.read(proc2, rfd.value(), out).ok());
    EXPECT_EQ(out, data);

    // Whatever survived of the old tree is traversable without
    // tripping kernel consistency checks.
    auto top = vfs2.readdir("/");
    ASSERT_TRUE(top.ok());
    for (const auto &entry : top.value()) {
        if (entry.type != os::FileType::Dir)
            continue;
        auto sub = vfs2.readdir("/" + entry.name);
        if (!sub.ok())
            continue;
        for (const auto &inner : sub.value())
            rio::wl::tolerate(vfs2.stat("/" + entry.name + "/" + inner.name));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegistryFuzz,
                         ::testing::Range<u64>(1, 16));

// Promoted regression corpus: seeds from wider offline sweeps whose
// damage exercises specific hardened-recovery decisions (see
// registry_fuzz_corpus.hh for the per-seed profile).
INSTANTIATE_TEST_SUITE_P(
    Corpus, RegistryFuzz,
    ::testing::ValuesIn(tests::kRegistryFuzzCorpus));
