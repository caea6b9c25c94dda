/**
 * @file
 * The rio-nv tier end to end: NvRegion persistence and fault hooks,
 * the NV registry mirror graft under a hardened warm reboot, the
 * intermittent-power campaign dimension, the crash-point model
 * checker with the NV mirror enabled, and the trial record's NV
 * fields: always present, and drawn from no RNG when the NV tier is
 * absent.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/nvmirror.hh"
#include "core/registry.hh"
#include "core/system.hh"
#include "fault/nvfault.hh"
#include "harness/crashcampaign.hh"
#include "harness/crashmc.hh"
#include "harness/sink.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

using L = core::RegistryLayout;
using NvL = core::NvMirrorLayout;

sim::MachineConfig
nvMachineConfig()
{
    sim::MachineConfig c = test::smallMachine();
    c.nvBytes = 2ull << 20;
    return c;
}

template <typename T>
T
peek(const u8 *slot, u64 off)
{
    T value;
    std::memcpy(&value, slot + off, sizeof(T));
    return value;
}

template <typename T>
void
poke(u8 *slot, u64 off, T value)
{
    std::memcpy(slot + off, &value, sizeof(T));
}

/** Indices of registry slots that carry the live magic. */
std::vector<u64>
liveSlots(sim::Machine &machine)
{
    const auto &mem = machine.mem();
    const auto &reg = mem.region(sim::RegionKind::Registry);
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    std::vector<u64> live;
    for (u64 i = 0; i < buf.pages() + ubc.pages(); ++i) {
        const Addr base = reg.base + i * L::kEntrySize;
        if (base + L::kEntrySize > mem.size())
            break;
        if (peek<u32>(mem.raw() + base, L::kOffMagic) == L::kMagic)
            live.push_back(i);
    }
    return live;
}

} // namespace

// ---------------------------------------------------------------
// NvRegion: the device itself.
// ---------------------------------------------------------------

TEST(NvRegion, SurvivesCrashAndBothResets)
{
    sim::Machine machine(nvMachineConfig());
    ASSERT_NE(machine.nv(), nullptr);
    sim::NvRegion &nv = *machine.nv();
    EXPECT_EQ(nv.size(), 2ull << 20);
    EXPECT_EQ(nv.numLines(), (2ull << 20) / sim::kNvLineSize);

    std::vector<u8> pattern(300);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<u8>(i * 7 + 1);
    nv.write(4096, pattern, machine.clock());
    EXPECT_EQ(nv.stats().writes, 1u);
    EXPECT_EQ(nv.stats().bytesWritten, pattern.size());

    try {
        machine.crash(sim::CrashCause::KernelPanic, "nv test");
    } catch (const sim::CrashException &) {
    }
    machine.reset(sim::ResetKind::Warm);
    EXPECT_EQ(std::memcmp(nv.raw() + 4096, pattern.data(),
                          pattern.size()),
              0);

    machine.reset(sim::ResetKind::Cold);
    EXPECT_EQ(std::memcmp(nv.raw() + 4096, pattern.data(),
                          pattern.size()),
              0);

    std::vector<u8> out(pattern.size());
    nv.read(4096, out, machine.clock());
    EXPECT_EQ(out, pattern);
}

TEST(NvRegion, RecentLinesAreDistinctAndRetireOnCrash)
{
    sim::Machine machine(nvMachineConfig());
    sim::NvRegion &nv = *machine.nv();

    const std::vector<u8> bytes(100, 0xaa);
    // Spans lines 0 and 1; the rewrite must not duplicate them.
    nv.write(0, bytes, machine.clock());
    nv.write(0, bytes, machine.clock());
    nv.write(sim::kNvLineSize * 5, bytes, machine.clock());
    const auto &recent = nv.recentLines();
    EXPECT_EQ(recent.size(), 4u); // 0, 1, 5, 6.

    nv.onCrash(machine.clock().now());
    EXPECT_TRUE(nv.recentLines().empty());
    EXPECT_EQ(nv.stats().crashes, 1u);
}

// ---------------------------------------------------------------
// NvFaultModel: deterministic decay.
// ---------------------------------------------------------------

TEST(NvFault, ReplaysExactlyFromSeedAndZeroIntensityIsInert)
{
    fault::NvFaultConfig aggressive;
    aggressive.decayChance = 1.0;
    aggressive.tornLineChance = 1.0;

    auto runOnce = [&](double intensity) {
        sim::Machine machine(nvMachineConfig());
        sim::NvRegion &nv = *machine.nv();
        const std::vector<u8> bytes(256, 0x3e);
        nv.write(0, bytes, machine.clock());
        nv.write(64 * 100, bytes, machine.clock());
        fault::NvFaultConfig config = aggressive;
        config.intensity = intensity;
        fault::NvFaultModel model(support::Rng(42), config);
        model.install(nv);
        nv.onCrash(machine.clock().now());
        return std::make_pair(
            std::vector<u8>(nv.raw(), nv.raw() + nv.size()),
            model.stats());
    };

    const auto [imageA, statsA] = runOnce(1.0);
    const auto [imageB, statsB] = runOnce(1.0);
    EXPECT_EQ(imageA, imageB);
    EXPECT_EQ(statsA.bitsFlipped, statsB.bitsFlipped);
    EXPECT_EQ(statsA.linesTorn, statsB.linesTorn);
    EXPECT_GT(statsA.bitsFlipped, 0u);
    EXPECT_GT(statsA.linesTorn, 0u);

    const auto [imageOff, statsOff] = runOnce(0.0);
    EXPECT_EQ(statsOff.bitsFlipped, 0u);
    EXPECT_EQ(statsOff.linesTorn, 0u);
    sim::Machine pristine(nvMachineConfig());
    const std::vector<u8> bytes(256, 0x3e);
    pristine.nv()->write(0, bytes, pristine.clock());
    pristine.nv()->write(64 * 100, bytes, pristine.clock());
    EXPECT_EQ(std::memcmp(imageOff.data(), pristine.nv()->raw(),
                          imageOff.size()),
              0);
}

// ---------------------------------------------------------------
// Location-bound checksums.
// ---------------------------------------------------------------

TEST(BindChecksum, BindsContentToItsDiskBlock)
{
    const u32 sum = 0x1234abcdu;
    EXPECT_EQ(core::bindChecksum(sum, 7), core::bindChecksum(sum, 7));
    EXPECT_NE(core::bindChecksum(sum, 7), core::bindChecksum(sum, 8));
    // A page that keeps its content but moves to another block must
    // not verify against the old binding — that is the cross-linked
    // claim the warm reboot has to catch.
    const u32 bound = core::bindChecksum(sum, 7);
    EXPECT_NE(bound, core::bindChecksum(sum, 9));
    EXPECT_NE(core::bindChecksum(0, 1), core::bindChecksum(0, 2));
}

// ---------------------------------------------------------------
// The NV mirror graft under a hardened warm reboot.
// ---------------------------------------------------------------

namespace
{

/** A crashed rio-nv machine with one durable file, post-reset:
 *  ready for image surgery and a warm reboot. */
struct NvCrashRig
{
    sim::Machine machine;
    core::System system;
    std::vector<u8> payload;

    NvCrashRig()
        : machine(nvMachineConfig()),
          system(machine,
                 os::systemPreset(os::SystemPreset::RioNvProtected),
                 {.maintainChecksums = true}),
          payload(8192, 0x6b)
    {
        system.boot(true);
        os::Process proc(1);
        auto &vfs = system.vfs();
        auto fd =
            vfs.open(proc, "/keep", os::OpenFlags::writeOnly());
        wl::tolerate(vfs.write(proc, fd.value(), payload));
        wl::tolerate(vfs.close(proc, fd.value()));
        system.crash("nv rig");
    }

    core::WarmRebootReport reboot()
    {
        auto report = system.recover();
        os::Process proc(1);
        std::vector<u8> out(payload.size());
        auto fd = system.vfs().open(proc, "/keep",
                                    os::OpenFlags::readOnly());
        if (fd.ok()) {
            wl::tolerate(system.vfs().read(proc, fd.value(), out));
            fileIntact = out == payload;
        }
        return report;
    }

    bool fileIntact = false;
};

} // namespace

TEST(NvGraft, RepairsEverySmashedRegistrySlot)
{
    NvCrashRig rig;
    const auto live = liveSlots(rig.machine);
    ASSERT_FALSE(live.empty());

    // An outage scribbled the magic of every live slot: without the
    // mirror the whole registry — and the dirty file data it claims
    // — would be gone.
    const auto &reg =
        rig.machine.mem().region(sim::RegionKind::Registry);
    for (const u64 i : live) {
        poke<u32>(rig.machine.mem().raw() + reg.base +
                      i * L::kEntrySize,
                  L::kOffMagic, 0x13371337u);
    }

    const auto report = rig.reboot();
    EXPECT_TRUE(report.nvMirrorPresent);
    EXPECT_FALSE(report.nvMirrorCorrupt);
    EXPECT_EQ(report.nvEntriesGrafted, live.size());
    EXPECT_TRUE(rig.fileIntact);
}

TEST(NvGraft, GraftsIntoACopyAndLeavesMemoryInPlace)
{
    NvCrashRig rig;
    const auto live = liveSlots(rig.machine);
    ASSERT_FALSE(live.empty());
    const auto &reg =
        rig.machine.mem().region(sim::RegionKind::Registry);
    for (const u64 i : live) {
        poke<u32>(rig.machine.mem().raw() + reg.base +
                      i * L::kEntrySize,
                  L::kOffMagic, 0x13371337u);
    }

    // The warm reboot dumps and scans memory where it lies: the
    // graft lands in a private copy of the Registry region, so the
    // image is unchanged by the step and the smashed slots stay
    // smashed in memory, yet the parsed registry holds every slot.
    const u32 before = support::checksum32(rig.machine.mem().image());
    auto report = rig.system.restoreMetadata();
    EXPECT_EQ(support::checksum32(rig.machine.mem().image()), before);
    EXPECT_EQ(peek<u32>(rig.machine.mem().raw() + reg.base +
                            live.front() * L::kEntrySize,
                        L::kOffMagic),
              0x13371337u);
    EXPECT_EQ(report.nvEntriesGrafted, live.size());
    const auto &parsed = rig.system.warmReboot()->registryImage();
    EXPECT_EQ(parsed.entries.size(), live.size());
    EXPECT_EQ(parsed.corruptEntries, 0u);

    rig.system.boot(false);
    rig.system.restoreData(report);
    EXPECT_GT(report.dataPagesRestored, 0u);
}

TEST(NvGraft, RejectsAMirrorWithASmashedHeader)
{
    NvCrashRig rig;
    // The outage destroyed the mirror header itself; the graft must
    // reject the whole mirror, and the untouched live registry must
    // carry the reboot on its own.
    std::memset(rig.machine.nv()->raw(), 0xee, NvL::kHeaderBytes);

    const auto report = rig.reboot();
    EXPECT_TRUE(report.nvMirrorPresent);
    EXPECT_TRUE(report.nvMirrorCorrupt);
    EXPECT_EQ(report.nvEntriesGrafted, 0u);
    EXPECT_TRUE(rig.fileIntact);
}

TEST(NvGraft, RefusesAMirrorSlotThatFailsItsOwnChecksum)
{
    NvCrashRig rig;
    const auto live = liveSlots(rig.machine);
    ASSERT_FALSE(live.empty());

    // Smash one live slot, and tear the matching mirror slot just
    // enough that it still decodes (magic, state, kind intact) but
    // its location-bound checksum no longer matches the page. The
    // hardened graft must leave the slot dead rather than graft a
    // torn mirror entry.
    const auto &reg =
        rig.machine.mem().region(sim::RegionKind::Registry);
    const u64 victim = live.front();
    u8 *slot =
        rig.machine.mem().raw() + reg.base + victim * L::kEntrySize;
    poke<u32>(slot, L::kOffMagic, 0x13371337u);
    u8 *mirrorSlot = rig.machine.nv()->raw() + NvL::kHeaderBytes +
                     victim * L::kEntrySize;
    poke<u32>(mirrorSlot, L::kOffChecksum,
              peek<u32>(mirrorSlot, L::kOffChecksum) ^ 0x00ff00ffu);

    const auto report = rig.reboot();
    EXPECT_TRUE(report.nvMirrorPresent);
    EXPECT_FALSE(report.nvMirrorCorrupt);
    EXPECT_EQ(report.nvEntriesGrafted, 0u);
}

// ---------------------------------------------------------------
// The intermittent-power campaign dimension.
// ---------------------------------------------------------------

TEST(PowerCycle, RunsTheOutageBudgetAndRecoversClean)
{
    harness::CampaignConfig config;
    config.seed = 7;
    config.powerCycleOps = 400;
    config.powerCycles = 2;
    config.observationNs = 600 * sim::kNsPerSec;
    harness::CrashCampaign campaign(config);

    const auto record = campaign.runTrial(
        harness::SystemKind::RioNvProtected,
        fault::FaultType::BitFlipHeap, 0);
    EXPECT_TRUE(record.crashed);
    EXPECT_TRUE(record.nvBacked);
    EXPECT_TRUE(record.powerCycleMode);
    EXPECT_EQ(record.powerCycles, 2u);
    EXPECT_GT(record.workloadOps, 0u);
    EXPECT_GT(record.recoveryNs, 0u);
    EXPECT_GT(record.nvMirrorWrites, 0u);
    // No damage model beyond the outages themselves: the hardened
    // rio-nv reboot must come back with every file intact.
    EXPECT_EQ(record.corruptFiles, 0u);

    // The whole trial replays byte-exactly from its seed.
    const auto again = campaign.runTrial(
        harness::SystemKind::RioNvProtected,
        fault::FaultType::BitFlipHeap, 0);
    EXPECT_EQ(harness::trialToJson(record),
              harness::trialToJson(again));
}

// ---------------------------------------------------------------
// JSONL contract: every record carries every field.
// ---------------------------------------------------------------

TEST(NvSink, EveryTrialJsonCarriesTheSameKeys)
{
    // Schema v2: a record carries every field whatever dimensions its
    // trial ran, so a default record and one with every block filled
    // give the same keys in the same order.
    auto keysOf = [](const std::string &line) {
        std::vector<std::string> keys;
        std::size_t at = 0;
        while ((at = line.find("\":", at)) != std::string::npos) {
            const std::size_t open = line.rfind('"', at - 1);
            keys.push_back(line.substr(open + 1, at - open - 1));
            at += 2;
        }
        return keys;
    };

    harness::TrialRecord full;
    full.crashed = true;
    full.cause = 1;
    full.crashAfterNs = 5;
    full.doubleCrashFired = true;
    full.doubleCrashPhase = 1;
    full.nvBacked = true;
    full.nvMirrorWrites = 3;
    full.powerCycleMode = true;
    full.powerCycles = 2;
    full.message = "panic";
    const std::string plainJson =
        harness::trialToJson(harness::TrialRecord{});
    const std::string fullJson = harness::trialToJson(full);
    const std::vector<std::string> keys = keysOf(plainJson);
    EXPECT_EQ(keys, keysOf(fullJson));
    EXPECT_EQ(keys.size(), 50u);
    EXPECT_NE(plainJson.find("\"cause\":null"), std::string::npos);
    EXPECT_NE(plainJson.find("\"doubleCrashPhase\":null"),
              std::string::npos);
    EXPECT_NE(plainJson.find("\"nvBacked\":false"), std::string::npos);
    EXPECT_NE(fullJson.find("\"nvBacked\":true"), std::string::npos);
    EXPECT_NE(fullJson.find("\"powerCycleMode\":true"),
              std::string::npos);
}

TEST(NvSink, NvKnobsDoNotPerturbANonNvTrial)
{
    // Enabling the NV fault stream on a machine without an NV region
    // draws nothing from the trial's RNG, so the trial's record is
    // the same with the knob at zero or at full intensity.
    harness::CampaignConfig plain;
    plain.seed = 11;
    harness::CampaignConfig knobbed = plain;
    knobbed.nvFaultIntensity = 1.0;

    const auto a =
        harness::CrashCampaign(plain).runTrial(
            harness::SystemKind::RioWithProtection,
            fault::FaultType::BitFlipHeap, 0);
    const auto b =
        harness::CrashCampaign(knobbed).runTrial(
            harness::SystemKind::RioWithProtection,
            fault::FaultType::BitFlipHeap, 0);
    EXPECT_FALSE(a.nvBacked);
    EXPECT_EQ(harness::trialToJson(a), harness::trialToJson(b));
}

// ---------------------------------------------------------------
// The crash-point model checker over rio-nv.
// ---------------------------------------------------------------

TEST(NvCrashMc, EveryShadowFlipPointRecoversWithTheMirror)
{
    harness::CrashMcConfig config;
    config.seed = 3;
    config.ops = 3;
    config.hardened = true;
    config.nvBacked = true;
    harness::CrashMc checker(config);

    const auto result =
        checker.runWorkload(harness::McWorkloadKind::ShadowFlip);
    EXPECT_GT(result.pointsRun, 0u);
    EXPECT_EQ(result.unrecoveredPoints, 0u);
    EXPECT_EQ(result.driftPoints, 0u);
    // The mirror's stores are themselves enumerable crash points.
    EXPECT_GT(result.perClass[static_cast<u32>(
                  harness::McEventClass::NvMirrorWrite)],
              0u);
}
