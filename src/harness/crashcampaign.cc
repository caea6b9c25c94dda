#include "harness/crashcampaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/system.hh"
#include "fault/diskfault.hh"
#include "fault/nvfault.hh"
#include "fault/postcrash.hh"
#include "harness/pool.hh"
#include "harness/report.hh"
#include "support/log.hh"
#include "workload/andrew.hh"
#include "workload/memtest.hh"

namespace rio::harness
{

const char *
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::DiskWriteThrough: return "Disk-based";
      case SystemKind::RioNoProtection: return "Rio w/o protection";
      case SystemKind::RioWithProtection: return "Rio w/ protection";
      case SystemKind::RioNvProtected: return "Rio w/ NV registry";
    }
    return "?";
}

namespace
{

os::KernelConfig
kernelConfigFor(SystemKind kind)
{
    switch (kind) {
      case SystemKind::DiskWriteThrough:
        // Functionality and setup of the default kernel; the
        // write-through semantics come from memTest fsyncing every
        // write (paper section 3.3).
        return os::systemPreset(os::SystemPreset::UfsDefault);
      case SystemKind::RioNoProtection:
        return os::systemPreset(os::SystemPreset::RioNoProtection);
      case SystemKind::RioWithProtection:
        return os::systemPreset(os::SystemPreset::RioProtected);
      case SystemKind::RioNvProtected:
        return os::systemPreset(os::SystemPreset::RioNvProtected);
    }
    return {};
}

bool
isRio(SystemKind kind)
{
    return kind != SystemKind::DiskWriteThrough;
}

} // namespace

std::vector<fault::FaultType>
CampaignConfig::allFaultTypes()
{
    std::vector<fault::FaultType> types;
    types.reserve(fault::kNumFaultTypes);
    for (std::size_t type = 0; type < fault::kNumFaultTypes; ++type)
        types.push_back(static_cast<fault::FaultType>(type));
    return types;
}

CrashCampaign::CrashCampaign(const CampaignConfig &config)
    : config_(config)
{}

CrashRunResult
CrashCampaign::runOne(SystemKind kind, fault::FaultType type, u64 seed)
{
    // Power loss replaces fault injection for the Rio systems when
    // powerCycleOps is set; the fault coordinate then only
    // differentiates the seed chain.
    const bool powerCycle = config_.powerCycleOps > 0 && isRio(kind);
    CrashRunResult result;
    result.powerCycleMode = powerCycle;

    sim::MachineConfig machineConfig = crashMachineConfig(seed);
    if (kind == SystemKind::RioNvProtected)
        fitNvRegion(machineConfig);
    sim::Machine machine(machineConfig);
    result.nvBacked = machine.nv() != nullptr;

    os::KernelConfig kernelConfig = kernelConfigFor(kind);
    if (isRio(kind) && config_.rioIdleFlushNs > 0) {
        kernelConfig.rioIdleFlush = true;
        kernelConfig.updateIntervalNs = config_.rioIdleFlushNs;
    }
    kernelConfig.ioRetry.enabled = config_.ioRetryEnabled;
    kernelConfig.lockdep = config_.lockdep;

    core::System system(machine, kernelConfig,
                        {.maintainChecksums = true});

    // NV fault model: decays bits / tears in-flight lines when the
    // machine crashes. Seeded purely from the run seed, same as every
    // other fault stream.
    fault::NvFaultConfig nvFaultConfig;
    nvFaultConfig.intensity = config_.nvFaultIntensity;
    fault::NvFaultModel nvFaults(
        support::Rng(mix64(seed ^ 0x4E76466C74ull)), // "NvFlt"
        nvFaultConfig);
    if (nvFaults.enabled() && machine.nv() != nullptr)
        nvFaults.install(*machine.nv());

    system.boot(true); // Boot applies Rio's protection.

    // Faulty-disk model: installed *after* the initial format so both
    // ablation arms start from an identical healthy file system. One
    // model per device (each owns its RNG stream); the bad-sector
    // maps live in the Disk objects and survive warm reboots.
    fault::DiskFaultConfig diskFaultConfig;
    diskFaultConfig.intensity = config_.diskFaultIntensity;
    fault::DiskFaultModel diskFaults(
        support::Rng(mix64(seed ^ 0x4469736b466c74ull)), // "DiskFlt"
        diskFaultConfig);
    fault::DiskFaultModel swapFaults(
        support::Rng(mix64(seed ^ 0x53776170466c74ull)), // "SwapFlt"
        diskFaultConfig);
    if (diskFaults.enabled()) {
        diskFaults.install(machine.disk());
        swapFaults.install(machine.swap());
    }

    // --- Workload: memTest + four looping copies of Andrew. -------
    // MemTest::rebind carries the model and operation stream across
    // power cycles; the Andrew scripts have no rebind, so the
    // background load stays out of power-cycle trials.
    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed * 17 + 3;
    memtestConfig.fsyncEveryWrite = !isRio(kind);
    wl::MemTest memtest(system.kernel(), memtestConfig);
    memtest.setup();

    std::vector<std::unique_ptr<wl::Andrew>> andrews;
    wl::Scheduler scheduler;
    scheduler.add(memtest);
    if (!powerCycle) {
        for (u32 i = 0; i < kAndrewCopies; ++i) {
            wl::AndrewConfig andrewConfig;
            andrewConfig.root = "/a" + std::to_string(i);
            andrewConfig.seed = seed * 37 + i;
            andrewConfig.loop = true;
            andrewConfig.dirs = 4;
            andrewConfig.files = 12;
            andrewConfig.compileNsPerFile = 10'000'000;
            andrews.push_back(std::make_unique<wl::Andrew>(
                system.kernel(), andrewConfig));
            scheduler.add(*andrews.back());
        }
    }

    // --- Segment end. A fault-injection segment takes 20 faults,
    // spread over its first seconds, and ends with the observation
    // window. A power-cycle segment loses power every powerCycleOps
    // scheduler steps; once the outage budget is spent it ends
    // cleanly instead, and the survivors are verified.
    fault::FaultInjector injector(system.kernel(),
                                  support::Rng(seed * 101 + 7));
    const SimNs startNs = machine.clock().now();
    u32 injected = 0;
    u64 steps = 0;
    scheduler.setBetweenSteps([&] {
        const SimNs elapsed = machine.clock().now() - startNs;
        if (!powerCycle) {
            while (injected < kFaultsPerRun &&
                   elapsed >= injected * kInjectSpacingNs) {
                injector.inject(type);
                ++injected;
            }
        } else if (++steps >= config_.powerCycleOps) {
            if (result.powerCycles < config_.powerCycles) {
                ++result.powerCycles;
                machine.crash(sim::CrashCause::KernelPanic,
                              "power loss: intermittent supply");
            }
            return false;
        }
        return elapsed < config_.observationNs;
    });

    core::RestorePolicy policy =
        config_.hardenedRecovery ? core::RestorePolicy::hardened()
                                 : core::RestorePolicy::trusting();
    policy.reentrantRecovery = config_.reentrantRecovery;

    // Double-crash dimension: one fault-injection trial in
    // doubleCrashRate takes a second crash in the middle of recovery,
    // at a point drawn uniformly over the recovery phases. Seeded
    // purely from the run seed so a JSONL record replays identically.
    support::Rng doubleCrashRng(
        mix64(seed ^ 0x44626c43727368ull)); // "DblCrsh"
    bool doubleCrashArmed = isRio(kind) && !powerCycle &&
                            config_.doubleCrashRate > 0.0 &&
                            doubleCrashRng.chance(
                                config_.doubleCrashRate);
    const u32 doubleCrashPhase =
        static_cast<u32>(doubleCrashRng.below(4));
    const double doubleCrashFraction =
        static_cast<double>(doubleCrashRng.below(1000)) / 1000.0;

    // --- Powered segments, each ended by a crash and a warm reboot.
    while (true) {
        steps = 0;
        try {
            scheduler.run();
            if (!result.crashed) {
                // No crash within the window: discard this run.
                result.discarded = true;
                return result;
            }
            break;
        } catch (const sim::CrashException &crash) {
            machine.noteCrash(crash.when());
            if (!result.crashed)
                result.crashAfterNs = crash.when() - startNs;
            result.crashed = true;
            result.cause = static_cast<u32>(crash.cause());
            result.message = crash.what();
        }

        // --- Detection pass 1: registry checksums (direct
        // corruption), then teardown.
        if (core::RioSystem *rio = system.rio()) {
            const auto sweep = rio->verifyChecksums();
            result.checksumDetected |= sweep.mismatches > 0;
            result.protectionSaves += rio->stats().protectionSaves;
            result.nvMirrorWrites += rio->stats().nvMirrorWrites;
        }
        system.teardown();

        // Post-crash corruption stage: damage the surviving image
        // before the warm reboot looks at it. Seeded purely from the
        // run seed (and, under intermittent power, the outage number)
        // so a JSONL record replays with identical damage.
        if (isRio(kind) && config_.postCrashIntensity > 0.0) {
            fault::PostCrashConfig postConfig;
            postConfig.intensity = config_.postCrashIntensity;
            if (config_.postCrashNvRepairable) {
                postConfig.flipRegistryBits = false;
                postConfig.smashPageBytes = false;
                postConfig.zeroTail = false;
                postConfig.nvBitDecay = false;
                postConfig.nvTornLines = false;
                postConfig.nvSmashMirror = false;
            }
            u64 damageSeed = mix64(seed ^ 0x506f737443727Eull);
            if (powerCycle)
                damageSeed = mix64(damageSeed ^ result.powerCycles);
            fault::PostCrashCorruptor corruptor(
                machine, support::Rng(damageSeed), postConfig);
            result.postCrashOps += corruptor.corrupt().ops;
        }

        // --- Recovery, re-run to convergence. ----------------------
        // A pass that crashes (the injected double crash, or a kernel
        // panic out of a faulty boot) is followed by another full
        // warm reboot; with re-entrant recovery each pass resumes
        // from the previous pass's checkpoint. Bounded: a volume that
        // cannot be recovered in kMaxRecoveryPasses attempts is
        // scored as lost.
        const SimNs recoveryStart = machine.clock().now();
        for (u32 pass = 0; !system.up() && pass < kMaxRecoveryPasses;
             ++pass) {
            ++result.recoveryPasses;
            const auto doubleCrash = machine.subscribe(
                [&](const sim::Event &event) {
                    const u32 phase =
                        static_cast<u32>(event.kind) -
                        static_cast<u32>(sim::EventKind::RecoveryDump);
                    if (!doubleCrashArmed || phase != doubleCrashPhase)
                        return;
                    const u64 trigger = static_cast<u64>(
                        doubleCrashFraction *
                        static_cast<double>(event.b));
                    if (event.a < trigger)
                        return;
                    doubleCrashArmed = false;
                    result.doubleCrashFired = true;
                    result.doubleCrashPhase = phase;
                    machine.crash(
                        sim::CrashCause::KernelPanic,
                        "double crash: second failure during recovery");
                },
                doubleCrashArmed ? sim::kRecoveryEvents : 0);
            try {
                // Step by step: a pass that dies keeps the report of
                // what it got through.
                result.warm = system.restoreMetadata(policy);
                system.boot(false);
                system.restoreData(result.warm);
            } catch (const sim::CrashException &crash) {
                machine.noteCrash(crash.when());
                system.teardown();
            }
            // Account what the pass managed, a dead one included.
            result.retriedSectors +=
                result.warm.recovery.retriedSectors;
            result.remappedSectors +=
                result.warm.recovery.remappedSectors;
            result.abandonedSectors +=
                result.warm.recovery.abandonedSectors;
            result.checkpointWrites +=
                result.warm.recovery.checkpointWrites;
        }
        result.recoveryNs += machine.clock().now() - recoveryStart;
        if (!system.up())
            break; // Recovery never converged: the volume is lost.
        result.nvMirrorPresent = result.warm.nvMirrorPresent;
        result.nvMirrorCorrupt |= result.warm.nvMirrorCorrupt;
        result.nvEntriesGrafted += result.warm.nvEntriesGrafted;
        result.nvShadowsUsed += result.warm.nvShadowsUsed;
        if (!powerCycle)
            break;
        // Power is back: the workload picks up where it left off.
        memtest.rebind(system.kernel());
    }

    wl::MemTest::VerifyResult verify;
    if (system.up()) {
        try {
            // --- Detection pass 2: memTest replay comparison. ------
            verify = memtest.verify(system.kernel());
        } catch (const sim::CrashException &) {
            // The recovered state was so damaged that even the
            // verifier tripped kernel checks: the volume is
            // unusable, which is worse than any count of
            // individually stale files. Score it as total loss —
            // otherwise a restore that renders the fs unbootable
            // out-scores one that keeps stale-but-valid copies.
            verify.readErrors += 1;
            verify.missingFiles += memtest.model().files().size();
        }
        result.readOnlyDegraded = system.kernel().ufs().readOnly();
    } else {
        // Recovery never completed: the volume is lost.
        verify.readErrors += 1;
        verify.missingFiles += memtest.model().files().size();
    }
    if (const core::RioSystem *rio = system.rio()) {
        // Only intermittent power scores the surviving kernel's saves;
        // a fault-injection trial counts those of the faulty run.
        if (powerCycle)
            result.protectionSaves += rio->stats().protectionSaves;
        result.nvMirrorWrites += rio->stats().nvMirrorWrites;
    }
    result.diskTransientErrors =
        machine.disk().stats().transientErrors +
        machine.swap().stats().transientErrors;
    result.diskBadSectorErrors =
        machine.disk().stats().badSectorErrors +
        machine.swap().stats().badSectorErrors;
    result.diskSectorsRemapped =
        machine.disk().stats().sectorsRemapped +
        machine.swap().stats().sectorsRemapped;
    result.memtestDetected = verify.corrupt() ||
                             memtest.liveMismatchSeen();
    result.corruptFiles = verify.missingFiles + verify.contentMismatches +
                          verify.sizeMismatches + verify.extraFiles +
                          verify.duplicateMismatches;
    result.corrupt = result.memtestDetected || result.checksumDetected;
    result.nvBitsFlipped = nvFaults.stats().bitsFlipped;
    result.nvLinesTorn = nvFaults.stats().linesTorn;
    result.workloadOps = memtest.opsCompleted();
    // The flat summary of the final recovery pass.
    const core::RecoveryReport &recovery = result.warm.recovery;
    result.dumpOk = recovery.dumpOk;
    result.metadataQuarantined = recovery.metadataQuarantined;
    result.duplicateClaims = recovery.duplicateClaims;
    result.boundsViolations = recovery.boundsViolations;
    result.shadowChecksumBad = recovery.shadowChecksumBad;
    result.dataQuarantined = recovery.dataQuarantined;
    result.metadataUnrestorable = result.warm.metadataUnrestorable;
    result.recoveryResumed = recovery.resumed;
    return result;
}

TrialRecord
CrashCampaign::runTrial(SystemKind kind, fault::FaultType type,
                        u32 trial)
{
    TrialRecord record;
    record.system = static_cast<u32>(kind);
    record.fault = static_cast<u32>(type);
    record.trial = trial;
    record.trialSeed = trialSeed(config_.seed, kind, type, trial);

    for (u32 attempt = 0; attempt < config_.maxAttemptsPerCrash;
         ++attempt) {
        const u64 seed = attemptSeed(record.trialSeed, attempt);
        ++record.attempts;
        const CrashRunResult run = runOne(kind, type, seed);
        if (run.discarded) {
            ++record.discards;
            continue;
        }
        static_cast<TrialOutcome &>(record) = run;
        record.crashSeed = seed;
        if (config_.verbose) {
            RIO_LOG_INFO << systemKindName(kind) << " / "
                         << fault::faultTypeName(type) << ": "
                         << run.message
                         << (run.corrupt ? "  [CORRUPT]" : "");
        }
        break;
    }
    return record;
}

void
CrashCampaign::mergeTrial(CampaignResult &result,
                          const TrialRecord &record) const
{
    CampaignCell &cell = result.cells[record.system][record.fault];
    cell.attempts += record.attempts;
    cell.discards += record.discards;
    if (!record.crashed)
        return;
    ++cell.crashes;
    if (record.corrupt)
        ++cell.corruptions;
    if (record.protectionSaves > 0)
        ++cell.savesRuns;
    result.uniqueErrorMessages.insert(record.message);
    ++result.crashCauseCounts[record.cause];
}

CampaignCell
CrashCampaign::runCell(SystemKind kind, fault::FaultType type,
                       CampaignResult &campaign)
{
    // Serial reference path: the same per-trial tasks the parallel
    // engine fans out, merged in the same order.
    for (u32 trial = 0; trial < config_.crashesPerCell; ++trial)
        mergeTrial(campaign, runTrial(kind, type, trial));
    return campaign.cells[static_cast<int>(kind)]
                        [static_cast<std::size_t>(type)];
}

CampaignResult
CrashCampaign::runAll(std::vector<TrialRecord> *trialRecords,
                      CampaignStats *stats)
{
    // One arm per cell, cell-major: arm trial t is the cell's trial
    // t, and the merge follows cell order, never completion order, so
    // the records are the same at any thread count.
    std::vector<Arm> arms;
    for (const SystemKind kind : config_.systems) {
        for (const fault::FaultType type : config_.faults) {
            CampaignConfig cell = config_;
            cell.faults = {type};
            arms.push_back({cell, kind, config_.crashesPerCell});
        }
    }
    // riolint:allow(R2) host wall-clock for throughput reporting only;
    // never feeds simulated state (excluded from byte-identity).
    const auto start = std::chrono::steady_clock::now();
    CampaignResult result;
    std::vector<TrialRecord> records;
    u64 attempts = 0;
    for (auto &cell : runArms(arms, config_.jobs, config_.progress)) {
        for (TrialRecord &record : cell) {
            mergeTrial(result, record);
            attempts += record.attempts;
            records.push_back(std::move(record));
        }
    }
    if (stats != nullptr) {
        stats->jobs = resolveJobs(config_.jobs);
        stats->trials = records.size();
        stats->attempts = attempts;
        stats->wallSeconds =
            std::chrono::duration<double>(
                // riolint:allow(R2) wall-clock speedup stat only.
                std::chrono::steady_clock::now() - start)
                .count();
    }
    if (trialRecords != nullptr)
        *trialRecords = std::move(records);
    return result;
}

std::vector<std::vector<TrialRecord>>
runArms(std::span<const Arm> arms, u32 jobs, bool progress)
{
    std::vector<CrashCampaign> campaigns;
    std::vector<std::vector<TrialRecord>> records;
    std::vector<std::pair<std::size_t, u32>> tasks; ///< (arm, trial).
    for (std::size_t arm = 0; arm < arms.size(); ++arm) {
        campaigns.emplace_back(arms[arm].config);
        records.emplace_back(arms[arm].trials);
        for (u32 trial = 0; trial < arms[arm].trials; ++trial)
            tasks.emplace_back(arm, trial);
    }
    // riolint:allow(R2) progress meter only.
    const auto start = std::chrono::steady_clock::now();
    std::atomic<u64> done{0};
    WorkerPool pool(resolveJobs(jobs));
    parallelFor(pool, tasks.size(), [&](u64 index) {
        const auto [arm, t] = tasks[index];
        const std::vector<fault::FaultType> &faults = arms[arm].config.faults;
        records[arm][t] = campaigns[arm].runTrial(
            arms[arm].system, faults[t % faults.size()],
            static_cast<u32>(t / faults.size()));
        const u64 finished = done.fetch_add(1) + 1;
        if (!progress)
            return;
        const double elapsed =
            std::chrono::duration<double>(
                // riolint:allow(R2) progress meter only.
                std::chrono::steady_clock::now() - start)
                .count();
        // One whole line per write; stderr is unbuffered and \r keeps
        // it to a single live line on a tty.
        std::fprintf(stderr, "\r[table1] %llu/%zu trials  %.1f trials/s ",
                     static_cast<unsigned long long>(finished), tasks.size(),
                     elapsed > 0 ? static_cast<double>(finished) / elapsed
                                 : 0.0);
    });
    if (progress)
        std::fputc('\n', stderr);
    return records;
}

CampaignCell
CampaignResult::total(SystemKind kind) const
{
    CampaignCell sum;
    for (const CampaignCell &cell : cells[static_cast<int>(kind)]) {
        sum.crashes += cell.crashes;
        sum.corruptions += cell.corruptions;
        sum.discards += cell.discards;
        sum.attempts += cell.attempts;
        sum.savesRuns += cell.savesRuns;
    }
    return sum;
}

std::string
CrashCampaign::renderTable1(const CampaignResult &result,
                            const CampaignConfig &config)
{
    // Only configured systems and faults get columns/rows: an
    // ablation slice must not print "0 of 0 (0.0%)" for systems it
    // never ran.
    auto columnTitle = [](SystemKind kind) {
        switch (kind) {
          case SystemKind::DiskWriteThrough: return "Disk-Based";
          case SystemKind::RioNoProtection:
            return "Rio w/o Protection";
          case SystemKind::RioWithProtection:
            return "Rio w/ Protection";
          case SystemKind::RioNvProtected:
            return "Rio + NV Registry";
        }
        return "?";
    };
    std::vector<std::string> header{"Fault Type"};
    for (const SystemKind kind : config.systems)
        header.emplace_back(columnTitle(kind));
    Table table(std::move(header));

    for (const fault::FaultType type : config.faults) {
        std::vector<std::string> row;
        row.push_back(fault::faultTypeName(type));
        for (const SystemKind kind : config.systems) {
            const CampaignCell &cell =
                result.cells[static_cast<int>(kind)]
                            [static_cast<std::size_t>(type)];
            row.push_back(cell.corruptions == 0
                              ? ""
                              : std::to_string(cell.corruptions));
        }
        table.addRow(std::move(row));
    }
    table.addSeparator();

    std::vector<std::string> totals{"Total"};
    for (const SystemKind kind : config.systems) {
        const u64 crashes = result.total(kind).crashes;
        const u64 corruptions = result.total(kind).corruptions;
        const double pct =
            crashes ? 100.0 * static_cast<double>(corruptions) /
                          static_cast<double>(crashes)
                    : 0.0;
        totals.push_back(std::to_string(corruptions) + " of " +
                         std::to_string(crashes) + " (" +
                         fmt(pct, 1) + "%)");
    }
    table.addRow(std::move(totals));

    std::string out = table.render();

    // Attempt accounting: the paper discards runs that do not crash
    // within ten minutes ("this happens about half the time").
    u64 attempts = 0, discards = 0, crashes = 0;
    for (const auto &system : result.cells) {
        for (const auto &cell : system) {
            attempts += cell.attempts;
            discards += cell.discards;
            crashes += cell.crashes;
        }
    }
    out += "\nruns: " + std::to_string(attempts) + " attempted, " +
           std::to_string(crashes) + " crashed, " +
           std::to_string(discards) + " discarded (" +
           fmt(attempts ? 100.0 * static_cast<double>(discards) /
                              static_cast<double>(attempts)
                        : 0.0,
               0) +
           "%; paper: ~50%)";
    // A trial can exhaust its attempt budget without crashing, so
    // cells may hold fewer than crashesPerCell crashes; report the
    // actual range instead of implying the target was always met.
    u64 minCrashes = ~0ull, maxCrashes = 0;
    for (const SystemKind kind : config.systems) {
        for (const fault::FaultType type : config.faults) {
            const CampaignCell &cell =
                result.cells[static_cast<int>(kind)]
                            [static_cast<std::size_t>(type)];
            minCrashes = std::min(minCrashes, cell.crashes);
            maxCrashes = std::max(maxCrashes, cell.crashes);
        }
    }
    out += "\ntrials per cell: " +
           std::to_string(config.crashesPerCell);
    if (minCrashes <= maxCrashes) {
        out += "; crashes collected per cell: " +
               (minCrashes == maxCrashes
                    ? std::to_string(minCrashes)
                    : std::to_string(minCrashes) + "-" +
                          std::to_string(maxCrashes));
    }
    out += "\nunique error messages: " +
           std::to_string(result.uniqueErrorMessages.size());
    if (std::find(config.systems.begin(), config.systems.end(),
                  SystemKind::RioWithProtection) !=
        config.systems.end()) {
        out += "\nprotection-mechanism saves (runs): " +
               std::to_string(
                   result.total(SystemKind::RioWithProtection).savesRuns);
    }
    out += "\n";
    return out;
}

} // namespace rio::harness
