#include "harness/sink.hh"

#include <cstdio>

#include "fault/models.hh"
#include "harness/crashcampaign.hh"
#include "harness/crashmc.hh"
#include "sim/crash.hh"
#include "support/json.hh"

namespace rio::harness
{

/** Layout version of table1.json and crashmc.json. v2: every record
 *  carries every field, with null for one that does not apply. */
constexpr int kSchema = 2;

std::string
trialToJson(const TrialRecord &record)
{
    support::JsonObject json;
    auto putIf = [&json](const char *key, bool applies, auto value) {
        if (applies)
            json.put(key, value);
        else
            json.put(key, nullptr);
    };
    json.put("system",
             systemKindName(static_cast<SystemKind>(record.system)))
        .put("systemIndex", record.system)
        .put("fault", fault::faultTypeName(
                          static_cast<fault::FaultType>(record.fault)))
        .put("faultIndex", record.fault)
        .put("trial", record.trial)
        .put("trialSeed", record.trialSeed)
        .put("crashSeed", record.crashSeed)
        .put("attempts", record.attempts)
        .put("discards", record.discards)
        .put("crashed", record.crashed);
    putIf("cause", record.crashed,
          sim::crashCauseName(static_cast<sim::CrashCause>(record.cause)));
    putIf("crashAfterNs", record.crashed, record.crashAfterNs);
    json.put("corrupt", record.corrupt)
        .put("checksumDetected", record.checksumDetected)
        .put("memtestDetected", record.memtestDetected)
        .put("corruptFiles", record.corruptFiles)
        .put("protectionSaves", record.protectionSaves)
        .put("dumpOk", record.dumpOk)
        .put("metadataQuarantined", record.metadataQuarantined)
        .put("duplicateClaims", record.duplicateClaims)
        .put("boundsViolations", record.boundsViolations)
        .put("shadowChecksumBad", record.shadowChecksumBad)
        .put("dataQuarantined", record.dataQuarantined)
        .put("metadataUnrestorable", record.metadataUnrestorable)
        .put("postCrashOps", record.postCrashOps)
        .put("doubleCrashFired", record.doubleCrashFired);
    putIf("doubleCrashPhase", record.doubleCrashFired,
          core::recoveryPhaseName(
              static_cast<core::RecoveryPhase>(record.doubleCrashPhase)));
    json.put("recoveryPasses", record.recoveryPasses)
        .put("recoveryResumed", record.recoveryResumed)
        .put("checkpointWrites", record.checkpointWrites)
        .put("retriedSectors", record.retriedSectors)
        .put("remappedSectors", record.remappedSectors)
        .put("abandonedSectors", record.abandonedSectors)
        .put("diskTransientErrors", record.diskTransientErrors)
        .put("diskBadSectorErrors", record.diskBadSectorErrors)
        .put("diskSectorsRemapped", record.diskSectorsRemapped)
        .put("readOnlyDegraded", record.readOnlyDegraded)
        .put("nvBacked", record.nvBacked);
    const bool nv = record.nvBacked;
    putIf("nvMirrorPresent", nv, record.nvMirrorPresent);
    putIf("nvMirrorCorrupt", nv, record.nvMirrorCorrupt);
    putIf("nvEntriesGrafted", nv, record.nvEntriesGrafted);
    putIf("nvShadowsUsed", nv, record.nvShadowsUsed);
    putIf("nvMirrorWrites", nv, record.nvMirrorWrites);
    putIf("nvBitsFlipped", nv, record.nvBitsFlipped);
    putIf("nvLinesTorn", nv, record.nvLinesTorn);
    json.put("powerCycleMode", record.powerCycleMode);
    const bool power = record.powerCycleMode;
    putIf("powerCycles", power, record.powerCycles);
    putIf("workloadOps", power, record.workloadOps);
    putIf("recoveryNs", power, record.recoveryNs);
    json.put("message", record.message);
    return json.compact();
}

std::string
campaignToJson(const CampaignResult &result,
               const CampaignConfig &config,
               const CampaignStats *stats)
{
    support::JsonObject json;
    json.put("experiment", "table1")
        .put("schema", kSchema)
        .put("seed", config.seed)
        .put("trialsPerCell", config.crashesPerCell)
        .put("faultsPerRun", kFaultsPerRun)
        .put("observationNs", config.observationNs)
        .put("postCrashIntensity", config.postCrashIntensity)
        .put("hardenedRecovery", config.hardenedRecovery);

    support::JsonArray systems;
    support::JsonArray cells;
    for (const SystemKind kind : config.systems) {
        const CampaignCell total = result.total(kind);
        systems.push(support::JsonObject()
                         .put("name", systemKindName(kind))
                         .put("crashes", total.crashes)
                         .put("corruptions", total.corruptions)
                         .put("saveRuns", total.savesRuns));
        const int system = static_cast<int>(kind);
        for (std::size_t type = 0; type < fault::kNumFaultTypes;
             ++type) {
            const CampaignCell &cell = result.cells[system][type];
            cells.push(support::JsonObject()
                           .put("system", system)
                           .put("fault",
                                fault::faultTypeName(
                                    static_cast<fault::FaultType>(type)))
                           .put("crashes", cell.crashes)
                           .put("corruptions", cell.corruptions)
                           .put("discards", cell.discards)
                           .put("attempts", cell.attempts)
                           .put("saveRuns", cell.savesRuns));
        }
    }
    json.put("systems", systems).put("cells", cells);

    support::JsonObject causes;
    for (std::size_t cause = 0; cause < result.crashCauseCounts.size();
         ++cause) {
        causes.put(
            sim::crashCauseName(static_cast<sim::CrashCause>(cause)),
            result.crashCauseCounts[cause]);
    }
    json.put("crashCauses", causes)
        .put("uniqueErrorMessages", result.uniqueErrorMessages.size());

    if (stats != nullptr) {
        json.put("host", support::JsonObject()
                             .put("jobs", stats->jobs)
                             .put("trials", stats->trials)
                             .put("attempts", stats->attempts)
                             .put("wallSeconds", stats->wallSeconds)
                             .put("trialsPerSecond",
                                  stats->trialsPerSecond()));
    }
    return json.str() + "\n";
}

std::string
mcPointToJson(const McPointRecord &record)
{
    return support::JsonObject()
        .put("workload", mcWorkloadName(
                             static_cast<McWorkloadKind>(record.workload)))
        .put("eventIndex", record.eventIndex)
        .put("eventClass", mcEventClassName(
                               static_cast<McEventClass>(record.eventClass)))
        .put("eventAddr", record.eventAddr)
        .put("seed", record.seed)
        .put("pointSeed", record.pointSeed)
        .put("crashed", record.crashed)
        .put("recovered", record.recovered)
        .put("oracleOk", record.oracleOk)
        .put("metadataRestored", record.metadataRestored)
        .put("metadataFromShadow", record.metadataFromShadow)
        .put("metadataFromPhysFallback", record.metadataFromPhysFallback)
        .put("metadataQuarantined", record.metadataQuarantined)
        .put("metadataUnrestorable", record.metadataUnrestorable)
        .put("corruptFiles", record.corruptFiles)
        .put("opsCompleted", record.opsCompleted)
        .put("failure", record.failure)
        .compact();
}

std::string
mcSummaryToJson(const McResult &result, const CrashMcConfig &config)
{
    support::JsonObject json;
    json.put("experiment", "crashmc")
        .put("schema", kSchema)
        .put("seed", config.seed)
        .put("ops", config.ops)
        .put("hardened", config.hardened)
        .put("shadowMetadata", config.shadowMetadata)
        .put("journalChecksum", config.journalChecksum)
        .put("tornCommit", config.tornCommit);

    support::JsonArray workloads;
    // Minimal repro records for every failing point: exactly the
    // coordinates tests/test_crashmc_corpus.cc replays.
    support::JsonArray counterexamples;
    for (const McWorkloadResult &workload : result.workloads) {
        support::JsonObject perClass;
        for (u32 cls = 0; cls < kMcNumEventClasses; ++cls) {
            perClass.put(
                mcEventClassName(static_cast<McEventClass>(cls)),
                workload.perClass[cls]);
        }
        workloads.push(support::JsonObject()
                           .put("name", mcWorkloadName(workload.kind))
                           .put("events", workload.totalEvents)
                           .put("pointsRun", workload.pointsRun)
                           .put("recovered", workload.recoveredPoints)
                           .put("unrecovered", workload.unrecoveredPoints)
                           .put("drift", workload.driftPoints)
                           .put("perClass", perClass));
        for (const McPointRecord &point : workload.points) {
            if (point.recovered)
                continue;
            counterexamples.push(
                support::JsonObject()
                    .put("workload", mcWorkloadName(workload.kind))
                    .put("eventIndex", point.eventIndex)
                    .put("eventClass",
                         mcEventClassName(
                             static_cast<McEventClass>(point.eventClass)))
                    .put("seed", point.seed)
                    .put("failure", point.failure));
        }
    }
    json.put("workloads", workloads)
        .put("counterexamples", counterexamples)
        .put("totalUnrecovered", result.totalUnrecovered());
    return json.str() + "\n";
}

std::string
mcRenderSummary(const McResult &result, const CrashMcConfig &config)
{
    std::string out;
    out += "crashmc: seed " + std::to_string(config.seed) + ", ops " +
           std::to_string(config.ops) + ", restore " +
           std::string(config.hardened ? "hardened" : "trusting") +
           ", shadowMetadata " +
           std::string(config.shadowMetadata ? "on" : "off") +
           ", journalChecksum " +
           std::string(config.journalChecksum ? "on" : "off") +
           ", tornCommit " +
           std::string(config.tornCommit ? "on" : "off") + "\n";
    char line[160];
    std::snprintf(line, sizeof(line), "%-12s %8s %10s %12s %6s\n",
                  "workload", "events", "recovered", "unrecovered",
                  "drift");
    out += line;
    for (const McWorkloadResult &workload : result.workloads) {
        std::snprintf(
            line, sizeof(line), "%-12s %8llu %10llu %12llu %6llu\n",
            mcWorkloadName(workload.kind),
            static_cast<unsigned long long>(workload.totalEvents),
            static_cast<unsigned long long>(workload.recoveredPoints),
            static_cast<unsigned long long>(
                workload.unrecoveredPoints),
            static_cast<unsigned long long>(workload.driftPoints));
        out += line;
        out += "  classes:";
        for (u32 cls = 0; cls < kMcNumEventClasses; ++cls) {
            if (workload.perClass[cls] == 0)
                continue;
            out += " " + std::string(mcEventClassName(
                             static_cast<McEventClass>(cls))) +
                   "=" + std::to_string(workload.perClass[cls]);
        }
        out += "\n";
        for (const McPointRecord &point : workload.points) {
            if (point.recovered)
                continue;
            out += "  FAIL k=" + std::to_string(point.eventIndex) + " (" +
                   mcEventClassName(
                       static_cast<McEventClass>(point.eventClass)) +
                   "): " + point.failure + "\n";
        }
    }
    return out;
}

} // namespace rio::harness
