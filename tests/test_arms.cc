/**
 * @file
 * The ablations' arm runner and trial totals: runArms must give every
 * arm exactly the records that runTrial gives its (fault, trial)
 * coordinates, at any worker count, and TrialTotals must sum those
 * records under their trialToJson names as the ablation printers
 * read them.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/crashcampaign.hh"
#include "harness/sink.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

/** Two small arms that differ only in their restore policy, as the
 *  recovery ablation's do. */
std::vector<Arm>
twoArms()
{
    std::vector<Arm> arms;
    for (const bool hardened : {false, true}) {
        CampaignConfig config;
        config.seed = 3;
        config.maxAttemptsPerCrash = 4;
        config.observationNs = 2 * sim::kNsPerSec;
        config.postCrashIntensity = 1.0;
        config.hardenedRecovery = hardened;
        config.faults = {fault::FaultType::PointerCorruption,
                         fault::FaultType::BitFlipHeap};
        arms.push_back({config, SystemKind::RioWithProtection,
                        hardened ? 3u : 2u});
    }
    return arms;
}

TrialRecord
crashedRecord()
{
    TrialRecord record;
    record.crashed = true;
    record.attempts = 2;
    record.discards = 1;
    return record;
}

} // namespace

TEST(ArmRunner, EqualsRunTrialPerIndexAtAnyWorkerCount)
{
    const std::vector<Arm> arms = twoArms();
    std::vector<std::vector<TrialRecord>> expected;
    for (const Arm &arm : arms) {
        CrashCampaign campaign(arm.config);
        std::vector<TrialRecord> records;
        // Trial t runs faults[t mod 2] as trial t / 2.
        for (u32 t = 0; t < arm.trials; ++t)
            records.push_back(campaign.runTrial(
                arm.system, arm.config.faults[t % 2], t / 2));
        expected.push_back(records);
    }
    EXPECT_EQ(runArms(arms, 1), expected);
    EXPECT_EQ(runArms(arms, 3), expected);
    EXPECT_EQ(expected[1][2].fault,
              static_cast<u32>(fault::FaultType::PointerCorruption));
    EXPECT_EQ(expected[1][2].trial, 1u);
}

TEST(TrialTotals, MatchesAHandSumOfWhatThePrintersRead)
{
    // A post-crash arm and an intermittent-power rio-nv arm, summed
    // together.
    std::vector<Arm> arms{twoArms()[1], twoArms()[1]};
    arms[1].system = SystemKind::RioNvProtected;
    arms[1].config.nvFaultIntensity = 1.0;
    arms[1].config.powerCycleOps = 400;
    arms[1].config.powerCycles = 2;
    arms[1].config.observationNs = 600 * sim::kNsPerSec;
    const std::vector<std::vector<TrialRecord>> perArm = runArms(arms, 2);
    std::vector<TrialRecord> records = perArm[0];
    records.insert(records.end(), perArm[1].begin(), perArm[1].end());
    // Every field ablation_recovery, _diskfault and _nv print. The
    // rio-nv and power-cycle counters are null, and add nothing, on
    // the trials of the first arm.
    const auto field = [](const TrialRecord &r, const std::string &name)
        -> u64 {
        if (name.starts_with("nv") && !r.nvBacked)
            return 0;
        if ((name == "powerCycles" || name == "workloadOps" ||
             name == "recoveryNs") && !r.powerCycleMode)
            return 0;
        if (name == "postCrashOps") return r.postCrashOps;
        if (name == "memtestDetected") return r.memtestDetected;
        if (name == "corrupt") return r.corrupt;
        if (name == "corruptFiles") return r.corruptFiles;
        if (name == "metadataQuarantined") return r.metadataQuarantined;
        if (name == "duplicateClaims") return r.duplicateClaims;
        if (name == "boundsViolations") return r.boundsViolations;
        if (name == "metadataUnrestorable") return r.metadataUnrestorable;
        if (name == "doubleCrashFired") return r.doubleCrashFired;
        if (name == "recoveryResumed") return r.recoveryResumed;
        if (name == "retriedSectors") return r.retriedSectors;
        if (name == "remappedSectors") return r.remappedSectors;
        if (name == "abandonedSectors") return r.abandonedSectors;
        if (name == "diskTransientErrors") return r.diskTransientErrors;
        if (name == "diskBadSectorErrors") return r.diskBadSectorErrors;
        if (name == "readOnlyDegraded") return r.readOnlyDegraded;
        if (name == "nvEntriesGrafted") return r.nvEntriesGrafted;
        if (name == "nvShadowsUsed") return r.nvShadowsUsed;
        if (name == "nvBitsFlipped") return r.nvBitsFlipped;
        if (name == "nvLinesTorn") return r.nvLinesTorn;
        if (name == "powerCycles") return r.powerCycles;
        if (name == "workloadOps") return r.workloadOps;
        if (name == "recoveryNs") return r.recoveryNs;
        throw std::logic_error(name);
    };
    const TrialTotals totals(records);
    EXPECT_EQ(totals.at("trials"), records.size());
    u64 crashed = 0;
    for (const TrialRecord &record : records)
        crashed += record.crashed;
    EXPECT_EQ(totals.at("crashed"), crashed);
    EXPECT_GT(crashed, 0u);
    std::map<std::string, u64> sums;
    for (const char *name :
         {"postCrashOps", "memtestDetected", "corrupt", "corruptFiles",
          "metadataQuarantined", "duplicateClaims", "boundsViolations",
          "metadataUnrestorable", "doubleCrashFired", "recoveryResumed",
          "retriedSectors", "remappedSectors", "abandonedSectors",
          "diskTransientErrors", "diskBadSectorErrors",
          "readOnlyDegraded", "nvEntriesGrafted", "nvShadowsUsed",
          "nvBitsFlipped", "nvLinesTorn", "powerCycles", "workloadOps",
          "recoveryNs"}) {
        u64 sum = 0;
        for (const TrialRecord &record : records) {
            if (record.crashed)
                sum += field(record, name);
        }
        EXPECT_EQ(totals.at(name), sum) << name;
        sums[name] = sum;
    }
    // Both dimensions ran, so the sums are not vacuous.
    EXPECT_GT(sums["postCrashOps"], 0u);
    EXPECT_GT(sums["nvEntriesGrafted"], 0u);
    EXPECT_GT(sums["recoveryNs"], 0u);
}

TEST(TrialTotals, CountsOnlyCrashedRecordsAndTrueAsOne)
{
    TrialRecord uncrashed;
    uncrashed.attempts = 25;
    uncrashed.discards = 25;
    uncrashed.corruptFiles = 7;
    TrialRecord detected = crashedRecord();
    detected.memtestDetected = true;
    detected.corruptFiles = 3;
    const std::vector<TrialRecord> records{uncrashed, detected,
                                           crashedRecord()};
    const TrialTotals totals(records);
    EXPECT_EQ(totals.at("trials"), 3u);
    EXPECT_EQ(totals.at("crashed"), 2u);
    EXPECT_EQ(totals.at("attempts"), 4u);
    EXPECT_EQ(totals.at("discards"), 2u);
    EXPECT_EQ(totals.at("memtestDetected"), 1u);
    EXPECT_EQ(totals.at("dumpOk"), 2u);
    EXPECT_EQ(totals.at("corruptFiles"), 3u);
}

TEST(TrialTotals, NullFieldsAddNothing)
{
    // A non-NV trial writes its rio-nv counters as null, whatever
    // they hold; an NV trial's count.
    TrialRecord plain = crashedRecord();
    plain.nvEntriesGrafted = 5;
    plain.nvMirrorPresent = true;
    plain.recoveryNs = 9;
    TrialRecord nv = crashedRecord();
    nv.nvBacked = true;
    nv.nvEntriesGrafted = 2;
    const std::vector<TrialRecord> records{plain, nv};
    const TrialTotals totals(records);
    EXPECT_EQ(totals.at("nvBacked"), 1u);
    EXPECT_EQ(totals.at("nvEntriesGrafted"), 2u);
    EXPECT_EQ(totals.at("nvMirrorPresent"), 0u);
    EXPECT_EQ(totals.at("recoveryNs"), 0u);
    // With no record at all every total is still there, at 0.
    const TrialTotals empty{std::vector<TrialRecord>{}};
    EXPECT_EQ(empty.at("trials"), 0u);
    EXPECT_EQ(empty.at("nvLinesTorn"), 0u);
}

TEST(TrialTotals, UnknownOrUnsummedNamesThrow)
{
    const TrialTotals totals{std::vector<TrialRecord>{crashedRecord()}};
    EXPECT_THROW(totals.at("corrupt_files"), std::out_of_range);
    EXPECT_THROW(totals.at("noSuchField"), std::out_of_range);
    // Identities are in the schema but are no totals.
    for (const char *name : {"trialSeed", "faultIndex", "message"})
        EXPECT_THROW(totals.at(name), std::out_of_range) << name;
}

TEST(TrialTotals, EntriesFollowTheSchemaOrder)
{
    const TrialTotals totals{std::vector<TrialRecord>{crashedRecord()}};
    const auto &entries = totals.entries;
    ASSERT_GE(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, "trials");
    EXPECT_EQ(entries[1].first, "attempts");
    EXPECT_EQ(entries.back().first, "recoveryNs");
    // Every summed name appears once, in the JSONL record's order.
    const std::string line = trialToJson(crashedRecord());
    std::size_t at = 0;
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const std::size_t found =
            line.find("\"" + entries[i].first + "\":", at);
        ASSERT_NE(found, std::string::npos) << entries[i].first;
        at = found;
    }
}
