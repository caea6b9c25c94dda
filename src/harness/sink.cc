#include "harness/sink.hh"

#include <cstdio>

#include "fault/models.hh"
#include "harness/crashcampaign.hh"
#include "harness/crashmc.hh"
#include "harness/report.hh"
#include "sim/crash.hh"

namespace rio::harness
{

namespace
{

std::string
num(u64 value)
{
    return std::to_string(value);
}

std::string
boolean(bool value)
{
    return value ? "true" : "false";
}

} // namespace

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
trialToJson(const TrialRecord &record)
{
    std::string out = "{";
    out += "\"system\":\"" +
           jsonEscape(systemKindName(
               static_cast<SystemKind>(record.system))) +
           "\"";
    out += ",\"systemIndex\":" + num(record.system);
    out += ",\"fault\":\"" +
           jsonEscape(fault::faultTypeName(
               static_cast<fault::FaultType>(record.fault))) +
           "\"";
    out += ",\"faultIndex\":" + num(record.fault);
    out += ",\"trial\":" + num(record.trial);
    out += ",\"trialSeed\":" + num(record.trialSeed);
    out += ",\"crashSeed\":" + num(record.crashSeed);
    out += ",\"attempts\":" + num(record.attempts);
    out += ",\"discards\":" + num(record.discards);
    out += ",\"crashed\":" + boolean(record.crashed);
    if (record.crashed) {
        out += ",\"cause\":\"" +
               jsonEscape(sim::crashCauseName(
                   static_cast<sim::CrashCause>(record.cause))) +
               "\"";
        out += ",\"crashAfterNs\":" + num(record.crashAfterNs);
    }
    out += ",\"corrupt\":" + boolean(record.corrupt);
    out += ",\"checksumDetected\":" + boolean(record.checksumDetected);
    out += ",\"memtestDetected\":" + boolean(record.memtestDetected);
    out += ",\"corruptFiles\":" + num(record.corruptFiles);
    out += ",\"protectionSaves\":" + num(record.protectionSaves);
    out += ",\"dumpOk\":" + boolean(record.dumpOk);
    out += ",\"metadataQuarantined\":" +
           num(record.metadataQuarantined);
    out += ",\"duplicateClaims\":" + num(record.duplicateClaims);
    out += ",\"boundsViolations\":" + num(record.boundsViolations);
    out += ",\"shadowChecksumBad\":" + num(record.shadowChecksumBad);
    out += ",\"dataQuarantined\":" + num(record.dataQuarantined);
    out += ",\"metadataUnrestorable\":" +
           num(record.metadataUnrestorable);
    out += ",\"postCrashOps\":" + num(record.postCrashOps);
    out += ",\"doubleCrashFired\":" +
           boolean(record.doubleCrashFired);
    if (record.doubleCrashFired) {
        out += ",\"doubleCrashPhase\":\"" +
               jsonEscape(core::recoveryPhaseName(
                   static_cast<core::RecoveryPhase>(
                       record.doubleCrashPhase))) +
               "\"";
    }
    out += ",\"recoveryPasses\":" + num(record.recoveryPasses);
    out += ",\"recoveryResumed\":" + boolean(record.recoveryResumed);
    out += ",\"checkpointWrites\":" + num(record.checkpointWrites);
    out += ",\"retriedSectors\":" + num(record.retriedSectors);
    out += ",\"remappedSectors\":" + num(record.remappedSectors);
    out += ",\"abandonedSectors\":" + num(record.abandonedSectors);
    out += ",\"diskTransientErrors\":" +
           num(record.diskTransientErrors);
    out += ",\"diskBadSectorErrors\":" +
           num(record.diskBadSectorErrors);
    out += ",\"diskSectorsRemapped\":" +
           num(record.diskSectorsRemapped);
    out += ",\"readOnlyDegraded\":" +
           boolean(record.readOnlyDegraded);
    // rio-nv and intermittent-power blocks are conditional, like
    // doubleCrashPhase above: a campaign with the NV knobs at their
    // defaults emits byte-identical lines to a build without them.
    if (record.nvBacked) {
        out += ",\"nvBacked\":true";
        out += ",\"nvMirrorPresent\":" +
               boolean(record.nvMirrorPresent);
        out += ",\"nvMirrorCorrupt\":" +
               boolean(record.nvMirrorCorrupt);
        out += ",\"nvEntriesGrafted\":" +
               num(record.nvEntriesGrafted);
        out += ",\"nvShadowsUsed\":" + num(record.nvShadowsUsed);
        out += ",\"nvMirrorWrites\":" + num(record.nvMirrorWrites);
        out += ",\"nvBitsFlipped\":" + num(record.nvBitsFlipped);
        out += ",\"nvLinesTorn\":" + num(record.nvLinesTorn);
    }
    if (record.powerCycleMode) {
        out += ",\"powerCycleMode\":true";
        out += ",\"powerCycles\":" + num(record.powerCycles);
        out += ",\"workloadOps\":" + num(record.workloadOps);
        out += ",\"recoveryNs\":" + num(record.recoveryNs);
    }
    out += ",\"message\":\"" + jsonEscape(record.message) + "\"";
    out += "}";
    return out;
}

std::string
campaignToJson(const CampaignResult &result,
               const CampaignConfig &config,
               const CampaignStats *stats)
{
    std::string out = "{\n";
    out += "  \"experiment\": \"table1\",\n";
    out += "  \"seed\": " + num(config.seed) + ",\n";
    out += "  \"trialsPerCell\": " + num(config.crashesPerCell) +
           ",\n";
    out += "  \"faultsPerRun\": " + num(kFaultsPerRun) + ",\n";
    out += "  \"observationNs\": " + num(config.observationNs) +
           ",\n";
    out += "  \"postCrashIntensity\": " +
           fmt(config.postCrashIntensity, 2) + ",\n";
    out += "  \"hardenedRecovery\": " +
           std::string(config.hardenedRecovery ? "true" : "false") +
           ",\n";

    out += "  \"systems\": [";
    bool firstSystem = true;
    for (const SystemKind kind : config.systems) {
        if (!firstSystem)
            out += ", ";
        firstSystem = false;
        out += "{\"name\": \"" + jsonEscape(systemKindName(kind)) +
               "\", \"crashes\": " + num(result.total(kind).crashes) +
               ", \"corruptions\": " +
               num(result.total(kind).corruptions) +
               ", \"saveRuns\": " + num(result.total(kind).savesRuns) +
               "}";
    }
    out += "],\n";

    out += "  \"cells\": [\n";
    bool firstCell = true;
    for (const SystemKind configured : config.systems) {
        const int system = static_cast<int>(configured);
        for (std::size_t type = 0; type < fault::kNumFaultTypes;
             ++type) {
            const CampaignCell &cell = result.cells[system][type];
            if (!firstCell)
                out += ",\n";
            firstCell = false;
            out += "    {\"system\": " + num(system) +
                   ", \"fault\": \"" +
                   jsonEscape(fault::faultTypeName(
                       static_cast<fault::FaultType>(type))) +
                   "\", \"crashes\": " + num(cell.crashes) +
                   ", \"corruptions\": " + num(cell.corruptions) +
                   ", \"discards\": " + num(cell.discards) +
                   ", \"attempts\": " + num(cell.attempts) +
                   ", \"saveRuns\": " + num(cell.savesRuns) + "}";
        }
    }
    out += "\n  ],\n";

    out += "  \"crashCauses\": {";
    for (std::size_t cause = 0; cause < result.crashCauseCounts.size();
         ++cause) {
        if (cause)
            out += ", ";
        out += "\"" +
               jsonEscape(sim::crashCauseName(
                   static_cast<sim::CrashCause>(cause))) +
               "\": " + num(result.crashCauseCounts[cause]);
    }
    out += "},\n";
    out += "  \"uniqueErrorMessages\": " +
           num(result.uniqueErrorMessages.size());

    if (stats != nullptr) {
        out += ",\n  \"host\": {\"jobs\": " + num(stats->jobs) +
               ", \"trials\": " + num(stats->trials) +
               ", \"attempts\": " + num(stats->attempts) +
               ", \"wallSeconds\": " + fmt(stats->wallSeconds, 3) +
               ", \"trialsPerSecond\": " +
               fmt(stats->trialsPerSecond(), 2) + "}";
    }
    out += "\n}\n";
    return out;
}

std::string
mcPointToJson(const McPointRecord &record)
{
    std::string out = "{";
    out += "\"workload\":\"" +
           jsonEscape(mcWorkloadName(
               static_cast<McWorkloadKind>(record.workload))) +
           "\"";
    out += ",\"eventIndex\":" + num(record.eventIndex);
    out += ",\"eventClass\":\"" +
           jsonEscape(mcEventClassName(
               static_cast<McEventClass>(record.eventClass))) +
           "\"";
    out += ",\"eventAddr\":" + num(record.eventAddr);
    out += ",\"seed\":" + num(record.seed);
    out += ",\"pointSeed\":" + num(record.pointSeed);
    out += ",\"crashed\":" + boolean(record.crashed);
    out += ",\"recovered\":" + boolean(record.recovered);
    out += ",\"oracleOk\":" + boolean(record.oracleOk);
    out += ",\"metadataRestored\":" + num(record.metadataRestored);
    out += ",\"metadataFromShadow\":" + num(record.metadataFromShadow);
    out += ",\"metadataFromPhysFallback\":" +
           num(record.metadataFromPhysFallback);
    out += ",\"metadataQuarantined\":" +
           num(record.metadataQuarantined);
    out += ",\"metadataUnrestorable\":" +
           num(record.metadataUnrestorable);
    out += ",\"corruptFiles\":" + num(record.corruptFiles);
    out += ",\"opsCompleted\":" + num(record.opsCompleted);
    out += ",\"failure\":\"" + jsonEscape(record.failure) + "\"";
    out += "}";
    return out;
}

std::string
mcSummaryToJson(const McResult &result, const CrashMcConfig &config)
{
    std::string out = "{\n";
    out += "  \"experiment\": \"crashmc\",\n";
    out += "  \"seed\": " + num(config.seed) + ",\n";
    out += "  \"ops\": " + num(config.ops) + ",\n";
    out += "  \"hardened\": " + boolean(config.hardened) + ",\n";
    out += "  \"shadowMetadata\": " + boolean(config.shadowMetadata) +
           ",\n";
    out += "  \"journalChecksum\": " +
           boolean(config.journalChecksum) + ",\n";
    out += "  \"tornCommit\": " + boolean(config.tornCommit) + ",\n";
    out += "  \"workloads\": [\n";
    bool firstWorkload = true;
    for (const McWorkloadResult &workload : result.workloads) {
        if (!firstWorkload)
            out += ",\n";
        firstWorkload = false;
        out += "    {\"name\": \"" +
               jsonEscape(mcWorkloadName(workload.kind)) +
               "\", \"events\": " + num(workload.totalEvents) +
               ", \"pointsRun\": " + num(workload.pointsRun) +
               ", \"recovered\": " + num(workload.recoveredPoints) +
               ", \"unrecovered\": " +
               num(workload.unrecoveredPoints) +
               ", \"drift\": " + num(workload.driftPoints) +
               ", \"perClass\": {";
        bool firstClass = true;
        for (u32 cls = 0; cls < kMcNumEventClasses; ++cls) {
            if (workload.perClass[cls] == 0)
                continue;
            if (!firstClass)
                out += ", ";
            firstClass = false;
            out += "\"" +
                   jsonEscape(mcEventClassName(
                       static_cast<McEventClass>(cls))) +
                   "\": " + num(workload.perClass[cls]);
        }
        out += "}}";
    }
    out += "\n  ],\n";

    // Minimal repro records for every failing point: exactly the
    // coordinates tests/test_crashmc_corpus.cc replays.
    out += "  \"counterexamples\": [\n";
    bool firstFail = true;
    for (const McWorkloadResult &workload : result.workloads) {
        for (const McPointRecord &point : workload.points) {
            if (point.recovered)
                continue;
            if (!firstFail)
                out += ",\n";
            firstFail = false;
            out += "    {\"workload\": \"" +
                   jsonEscape(mcWorkloadName(workload.kind)) +
                   "\", \"eventIndex\": " + num(point.eventIndex) +
                   ", \"eventClass\": \"" +
                   jsonEscape(mcEventClassName(
                       static_cast<McEventClass>(point.eventClass))) +
                   "\", \"seed\": " + num(point.seed) +
                   ", \"failure\": \"" + jsonEscape(point.failure) +
                   "\"}";
        }
    }
    out += "\n  ],\n";
    out += "  \"totalUnrecovered\": " + num(result.totalUnrecovered());
    out += "\n}\n";
    return out;
}

std::string
mcRenderSummary(const McResult &result, const CrashMcConfig &config)
{
    std::string out;
    out += "crashmc: seed " + num(config.seed) + ", ops " +
           num(config.ops) + ", restore " +
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
                   "=" + num(workload.perClass[cls]);
        }
        out += "\n";
        for (const McPointRecord &point : workload.points) {
            if (point.recovered)
                continue;
            out += "  FAIL k=" + num(point.eventIndex) + " (" +
                   mcEventClassName(
                       static_cast<McEventClass>(point.eventClass)) +
                   "): " + point.failure + "\n";
        }
    }
    return out;
}

} // namespace rio::harness
