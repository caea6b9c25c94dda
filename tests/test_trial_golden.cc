/**
 * @file
 * Golden trial records: the exact trialToJson bytes of a few
 * CrashCampaign::runTrial coordinates at fixed seeds, one per
 * dimension the crash-trial loop serves (disk-based, protected Rio,
 * post-crash corruption, faulty disk with a double crash, rio-nv, and
 * intermittent power on rio-nv and on protected Rio). Every number in
 * Table 1 and the ablations comes out of that loop, so a refactor of
 * it must leave these bytes alone. Re-pin only for a deliberate
 * change of results, and write down why.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/crashcampaign.hh"
#include "harness/sink.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

/** The intermittent-power setting of
 *  PowerCycle.RunsTheOutageBudgetAndRecoversClean. */
CampaignConfig
powerCycleConfig()
{
    CampaignConfig config;
    config.seed = 7;
    config.powerCycleOps = 400;
    config.powerCycles = 2;
    config.observationNs = 600 * sim::kNsPerSec;
    return config;
}

std::string
trialJson(const CampaignConfig &config, SystemKind kind,
          fault::FaultType type, u32 trial)
{
    return trialToJson(CrashCampaign(config).runTrial(kind, type, trial));
}

} // namespace

TEST(GoldenTrial, DiskBased)
{
    EXPECT_EQ(trialJson(CampaignConfig{}, SystemKind::DiskWriteThrough,
                        fault::FaultType::PointerCorruption, 0),
              "{\"system\":\"Disk-based\",\"systemIndex\":0"
              ",\"fault\":\"pointer\",\"faultIndex\":8,\"trial\":0"
              ",\"trialSeed\":3568005726136891794"
              ",\"crashSeed\":13017804424008807350,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"consistency check\""
              ",\"crashAfterNs\":561522500,\"corrupt\":false"
              ",\"checksumDetected\":false,\"memtestDetected\":false"
              ",\"corruptFiles\":0,\"protectionSaves\":0"
              ",\"dumpOk\":true,\"metadataQuarantined\":0"
              ",\"duplicateClaims\":0,\"boundsViolations\":0"
              ",\"shadowChecksumBad\":0,\"dataQuarantined\":0"
              ",\"metadataUnrestorable\":0,\"postCrashOps\":0"
              ",\"doubleCrashFired\":false,\"recoveryPasses\":1"
              ",\"recoveryResumed\":false,\"checkpointWrites\":0"
              ",\"retriedSectors\":0,\"remappedSectors\":0"
              ",\"abandonedSectors\":0,\"diskTransientErrors\":0"
              ",\"diskBadSectorErrors\":0,\"diskSectorsRemapped\":0"
              ",\"readOnlyDegraded\":false"
              ",\"message\":\"consistency check: buffer cache: bad buffer "
              "header magic\"}");
}

TEST(GoldenTrial, RioWithProtection)
{
    EXPECT_EQ(trialJson(CampaignConfig{}, SystemKind::RioWithProtection,
                        fault::FaultType::CopyOverrun, 0),
              "{\"system\":\"Rio w/ protection\",\"systemIndex\":2"
              ",\"fault\":\"copy overrun\",\"faultIndex\":10"
              ",\"trial\":0,\"trialSeed\":5435398162250997398"
              ",\"crashSeed\":1066746667616934751,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"protection fault\",\"crashAfterNs\":3723084"
              ",\"corrupt\":false,\"checksumDetected\":false"
              ",\"memtestDetected\":false,\"corruptFiles\":0"
              ",\"protectionSaves\":1,\"dumpOk\":true"
              ",\"metadataQuarantined\":0,\"duplicateClaims\":0"
              ",\"boundsViolations\":0,\"shadowChecksumBad\":0"
              ",\"dataQuarantined\":0,\"metadataUnrestorable\":0"
              ",\"postCrashOps\":0,\"doubleCrashFired\":false"
              ",\"recoveryPasses\":1,\"recoveryResumed\":false"
              ",\"checkpointWrites\":23,\"retriedSectors\":0"
              ",\"remappedSectors\":0,\"abandonedSectors\":0"
              ",\"diskTransientErrors\":0,\"diskBadSectorErrors\":0"
              ",\"diskSectorsRemapped\":0,\"readOnlyDegraded\":false"
              ",\"message\":\"protection fault: write to protected address "
              "0x8000000000ac6000\"}");
}

TEST(GoldenTrial, PostCrashCorruption)
{
    CampaignConfig config;
    config.postCrashIntensity = 1.0;
    EXPECT_EQ(trialJson(config, SystemKind::RioNoProtection,
                        fault::FaultType::BitFlipHeap, 0),
              "{\"system\":\"Rio w/o protection\",\"systemIndex\":1"
              ",\"fault\":\"kernel heap\",\"faultIndex\":1,\"trial\":0"
              ",\"trialSeed\":9911394642172665602"
              ",\"crashSeed\":16871681250069612306,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"consistency check\""
              ",\"crashAfterNs\":775092307,\"corrupt\":true"
              ",\"checksumDetected\":false,\"memtestDetected\":true"
              ",\"corruptFiles\":14,\"protectionSaves\":0"
              ",\"dumpOk\":true,\"metadataQuarantined\":3"
              ",\"duplicateClaims\":2,\"boundsViolations\":0"
              ",\"shadowChecksumBad\":0,\"dataQuarantined\":0"
              ",\"metadataUnrestorable\":0,\"postCrashOps\":10"
              ",\"doubleCrashFired\":false,\"recoveryPasses\":1"
              ",\"recoveryResumed\":false,\"checkpointWrites\":121"
              ",\"retriedSectors\":0,\"remappedSectors\":0"
              ",\"abandonedSectors\":0,\"diskTransientErrors\":0"
              ",\"diskBadSectorErrors\":0,\"diskSectorsRemapped\":0"
              ",\"readOnlyDegraded\":false"
              ",\"message\":\"consistency check: ubc: object/page hash "
              "inconsistent\"}");
}

TEST(GoldenTrial, DiskFaultsWithDoubleCrash)
{
    CampaignConfig config;
    config.diskFaultIntensity = 1.0;
    config.doubleCrashRate = 0.5;
    EXPECT_EQ(trialJson(config, SystemKind::RioWithProtection,
                        fault::FaultType::BitFlipHeap, 1),
              "{\"system\":\"Rio w/ protection\",\"systemIndex\":2"
              ",\"fault\":\"kernel heap\",\"faultIndex\":1,\"trial\":1"
              ",\"trialSeed\":6341835741175547949"
              ",\"crashSeed\":16521210987355115870,\"attempts\":2"
              ",\"discards\":1,\"crashed\":true"
              ",\"cause\":\"consistency check\""
              ",\"crashAfterNs\":1799696165,\"corrupt\":false"
              ",\"checksumDetected\":false,\"memtestDetected\":false"
              ",\"corruptFiles\":0,\"protectionSaves\":0"
              ",\"dumpOk\":true,\"metadataQuarantined\":0"
              ",\"duplicateClaims\":0,\"boundsViolations\":0"
              ",\"shadowChecksumBad\":0,\"dataQuarantined\":0"
              ",\"metadataUnrestorable\":0,\"postCrashOps\":0"
              ",\"doubleCrashFired\":true"
              ",\"doubleCrashPhase\":\"data-restore\""
              ",\"recoveryPasses\":2,\"recoveryResumed\":true"
              ",\"checkpointWrites\":109,\"retriedSectors\":6146"
              ",\"remappedSectors\":3,\"abandonedSectors\":0"
              ",\"diskTransientErrors\":4,\"diskBadSectorErrors\":3"
              ",\"diskSectorsRemapped\":3,\"readOnlyDegraded\":false"
              ",\"message\":\"consistency check: ubc: bad page header "
              "magic\"}");
}

TEST(GoldenTrial, RioNvClassic)
{
    EXPECT_EQ(trialJson(CampaignConfig{}, SystemKind::RioNvProtected,
                        fault::FaultType::PointerCorruption, 0),
              "{\"system\":\"Rio w/ NV registry\",\"systemIndex\":3"
              ",\"fault\":\"pointer\",\"faultIndex\":8,\"trial\":0"
              ",\"trialSeed\":17465241763666013746"
              ",\"crashSeed\":10928740156506051952,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"consistency check\""
              ",\"crashAfterNs\":313262146,\"corrupt\":false"
              ",\"checksumDetected\":false,\"memtestDetected\":false"
              ",\"corruptFiles\":0,\"protectionSaves\":0"
              ",\"dumpOk\":true,\"metadataQuarantined\":0"
              ",\"duplicateClaims\":0,\"boundsViolations\":0"
              ",\"shadowChecksumBad\":0,\"dataQuarantined\":0"
              ",\"metadataUnrestorable\":0,\"postCrashOps\":0"
              ",\"doubleCrashFired\":false,\"recoveryPasses\":1"
              ",\"recoveryResumed\":false,\"checkpointWrites\":123"
              ",\"retriedSectors\":0,\"remappedSectors\":0"
              ",\"abandonedSectors\":0,\"diskTransientErrors\":0"
              ",\"diskBadSectorErrors\":0,\"diskSectorsRemapped\":0"
              ",\"readOnlyDegraded\":false,\"nvBacked\":true"
              ",\"nvMirrorPresent\":true,\"nvMirrorCorrupt\":false"
              ",\"nvEntriesGrafted\":0,\"nvShadowsUsed\":0"
              ",\"nvMirrorWrites\":23538,\"nvBitsFlipped\":0"
              ",\"nvLinesTorn\":0"
              ",\"message\":\"consistency check: buffer cache: bad buffer "
              "header magic\"}");
}

TEST(GoldenTrial, PowerCycleRioNv)
{
    EXPECT_EQ(trialJson(powerCycleConfig(), SystemKind::RioNvProtected,
                        fault::FaultType::BitFlipHeap, 0),
              "{\"system\":\"Rio w/ NV registry\",\"systemIndex\":3"
              ",\"fault\":\"kernel heap\",\"faultIndex\":1,\"trial\":0"
              ",\"trialSeed\":2472048318534567101"
              ",\"crashSeed\":2064935983713350268,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"kernel panic\",\"crashAfterNs\":149864603"
              ",\"corrupt\":false,\"checksumDetected\":false"
              ",\"memtestDetected\":false,\"corruptFiles\":0"
              ",\"protectionSaves\":0,\"dumpOk\":true"
              ",\"metadataQuarantined\":0,\"duplicateClaims\":0"
              ",\"boundsViolations\":0,\"shadowChecksumBad\":0"
              ",\"dataQuarantined\":0,\"metadataUnrestorable\":0"
              ",\"postCrashOps\":0,\"doubleCrashFired\":false"
              ",\"recoveryPasses\":2,\"recoveryResumed\":false"
              ",\"checkpointWrites\":177,\"retriedSectors\":0"
              ",\"remappedSectors\":0,\"abandonedSectors\":0"
              ",\"diskTransientErrors\":0,\"diskBadSectorErrors\":0"
              ",\"diskSectorsRemapped\":0,\"readOnlyDegraded\":false"
              ",\"nvBacked\":true,\"nvMirrorPresent\":true"
              ",\"nvMirrorCorrupt\":false,\"nvEntriesGrafted\":0"
              ",\"nvShadowsUsed\":0,\"nvMirrorWrites\":125796"
              ",\"nvBitsFlipped\":0,\"nvLinesTorn\":0"
              ",\"powerCycleMode\":true,\"powerCycles\":2"
              ",\"workloadOps\":1197,\"recoveryNs\":28010202265"
              ",\"message\":\"kernel panic: power loss: intermittent "
              "supply\"}");
}

TEST(GoldenTrial, PowerCycleRioWithProtection)
{
    EXPECT_EQ(trialJson(powerCycleConfig(),
                        SystemKind::RioWithProtection,
                        fault::FaultType::BitFlipHeap, 0),
              "{\"system\":\"Rio w/ protection\",\"systemIndex\":2"
              ",\"fault\":\"kernel heap\",\"faultIndex\":1,\"trial\":0"
              ",\"trialSeed\":11486143483305615492"
              ",\"crashSeed\":4988808923355907470,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"kernel panic\",\"crashAfterNs\":126367860"
              ",\"corrupt\":false,\"checksumDetected\":false"
              ",\"memtestDetected\":false,\"corruptFiles\":0"
              ",\"protectionSaves\":0,\"dumpOk\":true"
              ",\"metadataQuarantined\":0,\"duplicateClaims\":0"
              ",\"boundsViolations\":0,\"shadowChecksumBad\":0"
              ",\"dataQuarantined\":0,\"metadataUnrestorable\":0"
              ",\"postCrashOps\":0,\"doubleCrashFired\":false"
              ",\"recoveryPasses\":2,\"recoveryResumed\":false"
              ",\"checkpointWrites\":135,\"retriedSectors\":0"
              ",\"remappedSectors\":0,\"abandonedSectors\":0"
              ",\"diskTransientErrors\":0,\"diskBadSectorErrors\":0"
              ",\"diskSectorsRemapped\":0,\"readOnlyDegraded\":false"
              ",\"powerCycleMode\":true,\"powerCycles\":2"
              ",\"workloadOps\":1197,\"recoveryNs\":24050531785"
              ",\"message\":\"kernel panic: power loss: intermittent "
              "supply\"}");
}

TEST(GoldenTrial, PowerCycleRioNvWithRepairableDamage)
{
    // Every outage also decays NV and damages the DRAM image in the
    // classes the mirror can repair, as in the NV ablation.
    CampaignConfig config = powerCycleConfig();
    config.nvFaultIntensity = 1.0;
    config.postCrashIntensity = 1.0;
    config.postCrashNvRepairable = true;
    EXPECT_EQ(trialJson(config, SystemKind::RioNvProtected,
                        fault::FaultType::BitFlipHeap, 0),
              "{\"system\":\"Rio w/ NV registry\",\"systemIndex\":3"
              ",\"fault\":\"kernel heap\",\"faultIndex\":1,\"trial\":0"
              ",\"trialSeed\":2472048318534567101"
              ",\"crashSeed\":2064935983713350268,\"attempts\":1"
              ",\"discards\":0,\"crashed\":true"
              ",\"cause\":\"kernel panic\",\"crashAfterNs\":149864603"
              ",\"corrupt\":false,\"checksumDetected\":false"
              ",\"memtestDetected\":false,\"corruptFiles\":0"
              ",\"protectionSaves\":0,\"dumpOk\":true"
              ",\"metadataQuarantined\":0,\"duplicateClaims\":0"
              ",\"boundsViolations\":0,\"shadowChecksumBad\":0"
              ",\"dataQuarantined\":0,\"metadataUnrestorable\":0"
              ",\"postCrashOps\":6,\"doubleCrashFired\":false"
              ",\"recoveryPasses\":2,\"recoveryResumed\":false"
              ",\"checkpointWrites\":177,\"retriedSectors\":0"
              ",\"remappedSectors\":0,\"abandonedSectors\":0"
              ",\"diskTransientErrors\":0,\"diskBadSectorErrors\":0"
              ",\"diskSectorsRemapped\":0,\"readOnlyDegraded\":false"
              ",\"nvBacked\":true,\"nvMirrorPresent\":true"
              ",\"nvMirrorCorrupt\":false,\"nvEntriesGrafted\":5"
              ",\"nvShadowsUsed\":0,\"nvMirrorWrites\":125796"
              ",\"nvBitsFlipped\":0,\"nvLinesTorn\":3"
              ",\"powerCycleMode\":true,\"powerCycles\":2"
              ",\"workloadOps\":1197,\"recoveryNs\":28010202265"
              ",\"message\":\"kernel panic: power loss: intermittent "
              "supply\"}");
}
