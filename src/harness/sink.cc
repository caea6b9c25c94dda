#include "harness/sink.hh"

#include <cstdio>
#include <stdexcept>
#include <type_traits>

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

namespace
{

/**
 * Schema v2's one list of TrialRecord fields, in JSONL order: calls
 * visit(name, value, summed, applies) for each field. A field that
 * does not apply to the trial is written null. The summed fields are
 * the counts and flags; names, indices, seeds and the message are not.
 */
template <class Visit>
void
forEachTrialField(const TrialRecord &record, Visit &&visit)
{
    const auto ident = [&visit](const char *name, auto value,
                                bool applies = true) {
        visit(name, value, false, applies);
    };
    const auto total = [&visit](const char *name, auto value,
                                bool applies = true) {
        visit(name, value, true, applies);
    };
    ident("system", systemKindName(static_cast<SystemKind>(record.system)));
    ident("systemIndex", record.system);
    ident("fault", fault::faultTypeName(
                       static_cast<fault::FaultType>(record.fault)));
    ident("faultIndex", record.fault);
    ident("trial", record.trial);
    ident("trialSeed", record.trialSeed);
    ident("crashSeed", record.crashSeed);
    total("attempts", record.attempts);
    total("discards", record.discards);
    total("crashed", record.crashed);
    ident("cause",
          sim::crashCauseName(static_cast<sim::CrashCause>(record.cause)),
          record.crashed);
    total("crashAfterNs", record.crashAfterNs, record.crashed);
    total("corrupt", record.corrupt);
    total("checksumDetected", record.checksumDetected);
    total("memtestDetected", record.memtestDetected);
    total("corruptFiles", record.corruptFiles);
    total("protectionSaves", record.protectionSaves);
    total("dumpOk", record.dumpOk);
    total("metadataQuarantined", record.metadataQuarantined);
    total("duplicateClaims", record.duplicateClaims);
    total("boundsViolations", record.boundsViolations);
    total("shadowChecksumBad", record.shadowChecksumBad);
    total("dataQuarantined", record.dataQuarantined);
    total("metadataUnrestorable", record.metadataUnrestorable);
    total("postCrashOps", record.postCrashOps);
    total("doubleCrashFired", record.doubleCrashFired);
    ident("doubleCrashPhase",
          core::recoveryPhaseName(
              static_cast<core::RecoveryPhase>(record.doubleCrashPhase)),
          record.doubleCrashFired);
    total("recoveryPasses", record.recoveryPasses);
    total("recoveryResumed", record.recoveryResumed);
    total("checkpointWrites", record.checkpointWrites);
    total("retriedSectors", record.retriedSectors);
    total("remappedSectors", record.remappedSectors);
    total("abandonedSectors", record.abandonedSectors);
    total("diskTransientErrors", record.diskTransientErrors);
    total("diskBadSectorErrors", record.diskBadSectorErrors);
    total("diskSectorsRemapped", record.diskSectorsRemapped);
    total("readOnlyDegraded", record.readOnlyDegraded);
    total("nvBacked", record.nvBacked);
    const bool nv = record.nvBacked;
    total("nvMirrorPresent", record.nvMirrorPresent, nv);
    total("nvMirrorCorrupt", record.nvMirrorCorrupt, nv);
    total("nvEntriesGrafted", record.nvEntriesGrafted, nv);
    total("nvShadowsUsed", record.nvShadowsUsed, nv);
    total("nvMirrorWrites", record.nvMirrorWrites, nv);
    total("nvBitsFlipped", record.nvBitsFlipped, nv);
    total("nvLinesTorn", record.nvLinesTorn, nv);
    total("powerCycleMode", record.powerCycleMode);
    const bool power = record.powerCycleMode;
    total("powerCycles", record.powerCycles, power);
    total("workloadOps", record.workloadOps, power);
    total("recoveryNs", record.recoveryNs, power);
    ident("message", record.message);
}

} // namespace

std::string
trialToJson(const TrialRecord &record)
{
    support::JsonObject json;
    forEachTrialField(record, [&json](const char *name, auto value, bool,
                                      bool applies) {
        if (applies)
            json.put(name, value);
        else
            json.put(name, nullptr);
    });
    return json.compact();
}

TrialTotals::TrialTotals(std::span<const TrialRecord> records)
{
    entries.emplace_back("trials", records.size());
    forEachTrialField(TrialRecord{}, [this](const char *name, auto,
                                            bool summed, bool) {
        if (summed)
            entries.emplace_back(name, 0);
    });
    for (const TrialRecord &record : records) {
        if (!record.crashed)
            continue;
        auto next = entries.begin() + 1;
        forEachTrialField(record, [&next](const char *, auto value,
                                          bool summed, bool applies) {
            if constexpr (std::is_arithmetic_v<decltype(value)>) {
                if (summed)
                    (next++)->second += applies ? static_cast<u64>(value) : 0;
            }
        });
    }
}

u64
TrialTotals::at(std::string_view name) const
{
    for (const auto &[key, total] : entries) {
        if (key == name)
            return total;
    }
    throw std::out_of_range("\"" + std::string(name) +
                            "\" is not a summed trialToJson field");
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
