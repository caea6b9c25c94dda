#include "harness/crashcampaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "fault/diskfault.hh"
#include "fault/nvfault.hh"
#include "harness/pool.hh"
#include "harness/report.hh"
#include "support/log.hh"
#include "workload/andrew.hh"

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

namespace
{

/** Machine for one trial: the NV system gets an NV region sized at
 *  1/16th of physical memory (the RioSystem constructor checks the
 *  registry mirror actually fits). */
sim::MachineConfig
trialMachineConfig(SystemKind kind, u64 seed)
{
    sim::MachineConfig config = crashMachineConfig(seed);
    if (kind == SystemKind::RioNvProtected)
        config.nvBytes = config.physMemBytes / 16;
    return config;
}

} // namespace

CrashRunResult
CrashCampaign::runOne(SystemKind kind, fault::FaultType type, u64 seed)
{
    if (config_.powerCycleOps > 0 && isRio(kind))
        return runPowerCycle(kind, type, seed);

    CrashRunResult result;

    sim::MachineConfig machineConfig = trialMachineConfig(kind, seed);
    sim::Machine machine(machineConfig);
    result.nvBacked = machine.nv() != nullptr;

    os::KernelConfig kernelConfig = kernelConfigFor(kind);
    if (isRio(kind) && config_.rioIdleFlushNs > 0) {
        kernelConfig.rioIdleFlush = true;
        kernelConfig.updateIntervalNs = config_.rioIdleFlushNs;
    }
    kernelConfig.ioRetry.enabled = config_.ioRetryEnabled;
    kernelConfig.lockdep = config_.lockdep;

    std::unique_ptr<core::RioSystem> rio;
    if (isRio(kind)) {
        core::RioOptions options;
        options.protection = kernelConfig.protection;
        options.maintainChecksums = true;
        options.nvBacked = kernelConfig.rioNvMirror;
        rio = std::make_unique<core::RioSystem>(machine, options);
    }

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

    auto kernel =
        std::make_unique<os::Kernel>(machine, kernelConfig);
    if (rio)
        rio->bindNvLock(kernel->locks());
    kernel->boot(rio.get(), true); // Boot applies Rio's protection.

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
    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed * 17 + 3;
    memtestConfig.fsyncEveryWrite = !isRio(kind);
    wl::MemTest memtest(*kernel, memtestConfig);
    memtest.setup();

    std::vector<std::unique_ptr<wl::Andrew>> andrews;
    wl::Scheduler scheduler;
    scheduler.add(memtest);
    if (config_.backgroundAndrew) {
        for (u32 i = 0; i < config_.andrewCopies; ++i) {
            wl::AndrewConfig andrewConfig;
            andrewConfig.root = "/a" + std::to_string(i);
            andrewConfig.seed = seed * 37 + i;
            andrewConfig.loop = true;
            andrewConfig.dirs = 4;
            andrewConfig.files = 12;
            andrewConfig.compileNsPerFile = 10'000'000;
            andrews.push_back(std::make_unique<wl::Andrew>(
                *kernel, andrewConfig));
            scheduler.add(*andrews.back());
        }
    }

    // --- Inject 20 faults, spread over the first seconds. ---------
    fault::FaultInjector injector(*kernel,
                                  support::Rng(seed * 101 + 7));
    const SimNs startNs = machine.clock().now();
    u32 injected = 0;
    scheduler.setBetweenSteps([&] {
        const SimNs elapsed = machine.clock().now() - startNs;
        while (injected < config_.faultsPerRun &&
               elapsed >= injected * config_.injectSpacingNs) {
            injector.inject(type);
            ++injected;
        }
        return elapsed < config_.observationNs;
    });

    try {
        scheduler.run();
        // No crash within the window: discard this run.
        result.discarded = true;
        return result;
    } catch (const sim::CrashException &crash) {
        machine.noteCrash(crash.when());
        result.crashed = true;
        result.cause = crash.cause();
        result.message = crash.what();
        result.crashAfterNs = crash.when() - startNs;
    }

    // --- Detection pass 1: registry checksums (direct corruption).
    if (rio) {
        const auto sweep = rio->verifyChecksums();
        result.checksumDetected = sweep.mismatches > 0;
        result.protectionSaves = rio->stats().protectionSaves;
        result.nvMirrorWrites = rio->stats().nvMirrorWrites;
        rio->deactivate();
        rio.reset();
    }

    // --- Reboot. ---------------------------------------------------
    kernel.reset();
    machine.reset(sim::ResetKind::Warm);

    // Post-crash corruption stage: damage the surviving image before
    // the warm reboot looks at it. Seeded purely from the run seed so
    // a JSONL record replays with identical damage.
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
        fault::PostCrashCorruptor corruptor(
            machine,
            support::Rng(mix64(seed ^ 0x506f737443727Eull)),
            postConfig);
        result.postCrash = corruptor.corrupt();
    }

    core::RestorePolicy policy =
        config_.hardenedRecovery ? core::RestorePolicy::hardened()
                                 : core::RestorePolicy::trusting();
    policy.reentrantRecovery = config_.reentrantRecovery;

    // Double-crash dimension: one trial in doubleCrashRate takes a
    // second crash in the middle of recovery, at a point drawn
    // uniformly over the recovery phases. Seeded purely from the run
    // seed so a JSONL record replays identically.
    support::Rng doubleCrashRng(
        mix64(seed ^ 0x44626c43727368ull)); // "DblCrsh"
    bool doubleCrashArmed = isRio(kind) &&
                            config_.doubleCrashRate > 0.0 &&
                            doubleCrashRng.chance(
                                config_.doubleCrashRate);
    const u32 doubleCrashPhase =
        static_cast<u32>(doubleCrashRng.below(4));
    const double doubleCrashFraction =
        static_cast<double>(doubleCrashRng.below(1000)) / 1000.0;

    // --- Recovery, re-run to convergence. --------------------------
    // A pass that crashes (the injected double crash, or a kernel
    // panic out of a faulty boot) is followed by another full warm
    // reboot; with re-entrant recovery each pass resumes from the
    // previous pass's checkpoint. Bounded: a volume that cannot be
    // recovered in maxRecoveryPasses attempts is scored as lost.
    std::unique_ptr<core::RioSystem> rio2;
    std::unique_ptr<os::Kernel> rebooted;
    for (u32 pass = 0; pass < std::max(config_.maxRecoveryPasses, 1u);
         ++pass) {
        ++result.recoveryPasses;
        core::WarmReboot warmReboot(machine, policy);
        warmReboot.setIoPolicy(kernelConfig.ioRetry);
        const auto doubleCrash = machine.subscribe(
            [&](const sim::Event &event) {
                const u32 phase = static_cast<u32>(event.kind) -
                                  static_cast<u32>(
                                      sim::EventKind::RecoveryDump);
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
            if (isRio(kind)) {
                result.warm = warmReboot.dumpAndRestoreMetadata();
                core::RioOptions options;
                options.protection = kernelConfig.protection;
                options.maintainChecksums = true;
                options.nvBacked = kernelConfig.rioNvMirror;
                rio2 = std::make_unique<core::RioSystem>(machine,
                                                         options);
            }
            rebooted = std::make_unique<os::Kernel>(machine,
                                                    kernelConfig);
            if (rio2)
                rio2->bindNvLock(rebooted->locks());
            rebooted->boot(rio2.get(), false);
            if (isRio(kind))
                warmReboot.restoreData(rebooted->vfs(), result.warm);
            result.retriedSectors +=
                result.warm.recovery.retriedSectors;
            result.remappedSectors +=
                result.warm.recovery.remappedSectors;
            result.abandonedSectors +=
                result.warm.recovery.abandonedSectors;
            result.checkpointWrites +=
                result.warm.recovery.checkpointWrites;
            break;
        } catch (const sim::CrashException &crash) {
            // Account what the dead pass managed before it went down,
            // then go around for another pass.
            result.retriedSectors +=
                result.warm.recovery.retriedSectors;
            result.remappedSectors +=
                result.warm.recovery.remappedSectors;
            result.abandonedSectors +=
                result.warm.recovery.abandonedSectors;
            result.checkpointWrites +=
                result.warm.recovery.checkpointWrites;
            machine.noteCrash(crash.when());
            rio2.reset();
            rebooted.reset();
            machine.reset(sim::ResetKind::Warm);
        }
    }

    if (rebooted != nullptr) {
        try {
            // --- Detection pass 2: memTest replay comparison. ------
            result.verify = memtest.verify(*rebooted);
        } catch (const sim::CrashException &crash) {
            // The recovered state was so damaged that even the
            // verifier tripped kernel checks: the volume is
            // unusable, which is worse than any count of
            // individually stale files. Score it as total loss —
            // otherwise a restore that renders the fs unbootable
            // out-scores one that keeps stale-but-valid copies.
            result.verify.readErrors += 1;
            result.verify.missingFiles +=
                memtest.model().files().size();
            result.verify.details.push_back(
                std::string("verifier crashed: ") + crash.what());
        }
        result.readOnlyDegraded = rebooted->ufs().readOnly();
    } else {
        // Recovery never converged within the pass budget.
        result.verify.readErrors += 1;
        result.verify.missingFiles += memtest.model().files().size();
        result.verify.details.push_back(
            "recovery never completed: volume lost");
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
    result.memtestDetected = result.verify.corrupt() ||
                             memtest.liveMismatchSeen();
    result.corruptFiles = result.verify.missingFiles +
                          result.verify.contentMismatches +
                          result.verify.sizeMismatches +
                          result.verify.extraFiles +
                          result.verify.duplicateMismatches;
    result.corrupt = result.memtestDetected || result.checksumDetected;
    // rio-nv accounting: the final pass's graft report plus lifetime
    // fault-model and mirror-store counters.
    if (result.nvBacked) {
        result.nvMirrorPresent = result.warm.nvMirrorPresent;
        result.nvMirrorCorrupt = result.warm.nvMirrorCorrupt;
        result.nvEntriesGrafted = result.warm.nvEntriesGrafted;
        result.nvShadowsUsed = result.warm.nvShadowsUsed;
        if (rio2)
            result.nvMirrorWrites += rio2->stats().nvMirrorWrites;
        result.nvBitsFlipped = nvFaults.stats().bitsFlipped;
        result.nvLinesTorn = nvFaults.stats().linesTorn;
    }
    result.workloadOps = memtest.opsCompleted();
    return result;
}

CrashRunResult
CrashCampaign::runPowerCycle(SystemKind kind, fault::FaultType type,
                             u64 seed)
{
    // Power loss replaces fault injection in this mode; the fault
    // coordinate only differentiates the seed chain.
    (void)type;

    CrashRunResult result;
    result.powerCycleMode = true;

    sim::MachineConfig machineConfig = trialMachineConfig(kind, seed);
    sim::Machine machine(machineConfig);
    result.nvBacked = machine.nv() != nullptr;

    os::KernelConfig kernelConfig = kernelConfigFor(kind);
    if (config_.rioIdleFlushNs > 0) {
        kernelConfig.rioIdleFlush = true;
        kernelConfig.updateIntervalNs = config_.rioIdleFlushNs;
    }
    kernelConfig.ioRetry.enabled = config_.ioRetryEnabled;
    kernelConfig.lockdep = config_.lockdep;

    core::RioOptions options;
    options.protection = kernelConfig.protection;
    options.maintainChecksums = true;
    options.nvBacked = kernelConfig.rioNvMirror;

    fault::NvFaultConfig nvFaultConfig;
    nvFaultConfig.intensity = config_.nvFaultIntensity;
    fault::NvFaultModel nvFaults(
        support::Rng(mix64(seed ^ 0x4E76466C74ull)), // "NvFlt"
        nvFaultConfig);
    if (nvFaults.enabled() && machine.nv() != nullptr)
        nvFaults.install(*machine.nv());

    auto rio = std::make_unique<core::RioSystem>(machine, options);
    auto kernel =
        std::make_unique<os::Kernel>(machine, kernelConfig);
    rio->bindNvLock(kernel->locks());
    kernel->boot(rio.get(), true);

    // Same discipline as runOne: disk faults installed after the
    // initial format so every arm starts from a healthy file system.
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

    // Workload: memTest only. MemTest::rebind carries the model and
    // operation stream across power cycles; the Andrew scripts have
    // no rebind, so the background load stays out of this mode.
    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed * 17 + 3;
    memtestConfig.fsyncEveryWrite = false; // Always a Rio system.
    wl::MemTest memtest(*kernel, memtestConfig);
    memtest.setup();

    core::RestorePolicy policy =
        config_.hardenedRecovery ? core::RestorePolicy::hardened()
                                 : core::RestorePolicy::trusting();
    policy.reentrantRecovery = config_.reentrantRecovery;

    const SimNs startNs = machine.clock().now();
    while (true) {
        // --- One powered segment: run until the supply dies. -------
        wl::Scheduler scheduler;
        scheduler.add(memtest);
        u64 steps = 0;
        bool lostPower = false;
        scheduler.setBetweenSteps([&] {
            ++steps;
            if (steps >= config_.powerCycleOps) {
                if (result.powerCycles < config_.powerCycles)
                    machine.crash(
                        sim::CrashCause::KernelPanic,
                        "power loss: intermittent supply");
                // Outage budget spent: one last full-length powered
                // segment, then stop cleanly and verify.
                return false;
            }
            return machine.clock().now() - startNs <
                   config_.observationNs;
        });
        try {
            scheduler.run();
        } catch (const sim::CrashException &crash) {
            machine.noteCrash(crash.when());
            lostPower = true;
            result.crashed = true;
            result.cause = crash.cause();
            result.message = crash.what();
            if (result.powerCycles == 0)
                result.crashAfterNs = crash.when() - startNs;
            ++result.powerCycles;
        }
        if (!lostPower)
            break; // Cycle budget spent (or workload finished).

        // --- Detection pass 1 on the dead image, then teardown. ----
        {
            const auto sweep = rio->verifyChecksums();
            result.checksumDetected |= sweep.mismatches > 0;
            result.protectionSaves += rio->stats().protectionSaves;
            result.nvMirrorWrites += rio->stats().nvMirrorWrites;
            rio->deactivate();
            rio.reset();
        }
        kernel.reset();
        machine.reset(sim::ResetKind::Warm);

        // Post-crash corruption stage, re-seeded per cycle so every
        // outage damages the survivors differently but a record
        // still replays exactly.
        if (config_.postCrashIntensity > 0.0) {
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
            fault::PostCrashCorruptor corruptor(
                machine,
                support::Rng(
                    mix64(mix64(seed ^ 0x506f737443727Eull) ^
                          result.powerCycles)),
                postConfig);
            const fault::PostCrashStats damage = corruptor.corrupt();
            result.postCrash.ops += damage.ops;
            result.postCrash.registryBitsFlipped +=
                damage.registryBitsFlipped;
            result.postCrash.magicsSmashed += damage.magicsSmashed;
            result.postCrash.claimsCrossLinked +=
                damage.claimsCrossLinked;
            result.postCrash.pagesCrossLinked +=
                damage.pagesCrossLinked;
            result.postCrash.pageBytesSmashed +=
                damage.pageBytesSmashed;
            result.postCrash.shadowsSmashed += damage.shadowsSmashed;
            result.postCrash.tailBytesZeroed +=
                damage.tailBytesZeroed;
        }

        // --- Warm reboot, bounded retries; recovery time is the
        // recovery-throughput number the JSONL sinks report. --------
        const SimNs recoveryStart = machine.clock().now();
        bool recovered = false;
        for (u32 pass = 0;
             pass < std::max(config_.maxRecoveryPasses, 1u); ++pass) {
            ++result.recoveryPasses;
            core::WarmReboot warmReboot(machine, policy);
            warmReboot.setIoPolicy(kernelConfig.ioRetry);
            try {
                result.warm = warmReboot.dumpAndRestoreMetadata();
                rio = std::make_unique<core::RioSystem>(machine,
                                                        options);
                kernel = std::make_unique<os::Kernel>(machine,
                                                      kernelConfig);
                rio->bindNvLock(kernel->locks());
                kernel->boot(rio.get(), false);
                warmReboot.restoreData(kernel->vfs(), result.warm);
                recovered = true;
            } catch (const sim::CrashException &crash) {
                machine.noteCrash(crash.when());
                rio.reset();
                kernel.reset();
                machine.reset(sim::ResetKind::Warm);
            }
            result.retriedSectors +=
                result.warm.recovery.retriedSectors;
            result.remappedSectors +=
                result.warm.recovery.remappedSectors;
            result.abandonedSectors +=
                result.warm.recovery.abandonedSectors;
            result.checkpointWrites +=
                result.warm.recovery.checkpointWrites;
            if (recovered)
                break;
        }
        result.recoveryNs += machine.clock().now() - recoveryStart;
        if (!recovered) {
            result.verify.readErrors += 1;
            result.verify.missingFiles +=
                memtest.model().files().size();
            result.verify.details.push_back(
                "recovery never completed: volume lost");
            break;
        }
        result.nvMirrorPresent = result.warm.nvMirrorPresent;
        result.nvMirrorCorrupt = result.nvMirrorCorrupt ||
                                 result.warm.nvMirrorCorrupt;
        result.nvEntriesGrafted += result.warm.nvEntriesGrafted;
        result.nvShadowsUsed += result.warm.nvShadowsUsed;

        // Power is back: the workload picks up where it left off.
        memtest.rebind(*kernel);
    }

    if (!result.crashed) {
        // The observation window closed before the first outage:
        // nothing to score, same as a fault run that never crashed.
        result.discarded = true;
        return result;
    }

    // --- Detection pass 2: memTest replay comparison. --------------
    if (kernel != nullptr) {
        try {
            result.verify = memtest.verify(*kernel);
        } catch (const sim::CrashException &crash) {
            result.verify.readErrors += 1;
            result.verify.missingFiles +=
                memtest.model().files().size();
            result.verify.details.push_back(
                std::string("verifier crashed: ") + crash.what());
        }
        result.readOnlyDegraded = kernel->ufs().readOnly();
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
    result.nvBitsFlipped = nvFaults.stats().bitsFlipped;
    result.nvLinesTorn = nvFaults.stats().linesTorn;
    result.workloadOps = memtest.opsCompleted();
    result.memtestDetected = result.verify.corrupt() ||
                             memtest.liveMismatchSeen();
    result.corruptFiles = result.verify.missingFiles +
                          result.verify.contentMismatches +
                          result.verify.sizeMismatches +
                          result.verify.extraFiles +
                          result.verify.duplicateMismatches;
    result.corrupt = result.memtestDetected || result.checksumDetected;
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
        record.crashed = true;
        record.crashSeed = seed;
        record.cause = static_cast<u32>(run.cause);
        record.crashAfterNs = run.crashAfterNs;
        record.corrupt = run.corrupt;
        record.checksumDetected = run.checksumDetected;
        record.memtestDetected = run.memtestDetected;
        record.corruptFiles = run.corruptFiles;
        record.protectionSaves = run.protectionSaves;
        record.postCrashOps = run.postCrash.ops;
        record.dumpOk = run.warm.recovery.dumpOk;
        record.metadataQuarantined =
            run.warm.recovery.metadataQuarantined;
        record.duplicateClaims = run.warm.recovery.duplicateClaims;
        record.boundsViolations = run.warm.recovery.boundsViolations;
        record.shadowChecksumBad =
            run.warm.recovery.shadowChecksumBad;
        record.dataQuarantined = run.warm.recovery.dataQuarantined;
        record.metadataUnrestorable = run.warm.metadataUnrestorable;
        record.doubleCrashFired = run.doubleCrashFired;
        record.doubleCrashPhase = run.doubleCrashPhase;
        record.recoveryPasses = run.recoveryPasses;
        record.recoveryResumed = run.warm.recovery.resumed;
        record.checkpointWrites = run.checkpointWrites;
        record.retriedSectors = run.retriedSectors;
        record.remappedSectors = run.remappedSectors;
        record.abandonedSectors = run.abandonedSectors;
        record.diskTransientErrors = run.diskTransientErrors;
        record.diskBadSectorErrors = run.diskBadSectorErrors;
        record.diskSectorsRemapped = run.diskSectorsRemapped;
        record.readOnlyDegraded = run.readOnlyDegraded;
        record.nvBacked = run.nvBacked;
        record.nvMirrorPresent = run.nvMirrorPresent;
        record.nvMirrorCorrupt = run.nvMirrorCorrupt;
        record.nvEntriesGrafted = run.nvEntriesGrafted;
        record.nvShadowsUsed = run.nvShadowsUsed;
        record.nvMirrorWrites = run.nvMirrorWrites;
        record.nvBitsFlipped = run.nvBitsFlipped;
        record.nvLinesTorn = run.nvLinesTorn;
        record.powerCycleMode = run.powerCycleMode;
        record.powerCycles = run.powerCycles;
        record.workloadOps = run.workloadOps;
        record.recoveryNs = run.recoveryNs;
        record.message = run.message;
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
CrashCampaign::runAll(CampaignSink *sink, CampaignStats *stats)
{
    struct Task
    {
        SystemKind kind;
        fault::FaultType type;
        u32 trial;
    };
    std::vector<Task> tasks;
    tasks.reserve(config_.systems.size() * config_.faults.size() *
                  config_.crashesPerCell);
    for (const SystemKind kind : config_.systems) {
        for (const fault::FaultType type : config_.faults) {
            for (u32 trial = 0; trial < config_.crashesPerCell;
                 ++trial)
                tasks.push_back({kind, type, trial});
        }
    }

    const u32 jobs = resolveJobs(config_.jobs);
    // riolint:allow(R2) host wall-clock for throughput reporting only;
    // never feeds simulated state (excluded from byte-identity).
    const auto start = std::chrono::steady_clock::now();
    std::vector<TrialRecord> records(tasks.size());
    std::atomic<u64> done{0};

    {
        WorkerPool pool(jobs);
        parallelFor(pool, tasks.size(), [&](u64 index) {
            const Task &task = tasks[index];
            records[index] =
                runTrial(task.kind, task.type, task.trial);
            const u64 finished = done.fetch_add(1) + 1;
            if (config_.progress) {
                const double elapsed =
                    std::chrono::duration<double>(
                        // riolint:allow(R2) progress meter only.
                        std::chrono::steady_clock::now() - start)
                        .count();
                // One whole line per write; stderr is unbuffered and
                // \r keeps it to a single live line on a tty.
                std::fprintf(
                    stderr,
                    "\r[table1] %llu/%zu trials  %.1f trials/s ",
                    static_cast<unsigned long long>(finished),
                    tasks.size(),
                    elapsed > 0
                        ? static_cast<double>(finished) / elapsed
                        : 0.0);
            }
        });
    }
    if (config_.progress)
        std::fputc('\n', stderr);

    // Deterministic merge: cell-major task order, never completion
    // order. The sink sees the same stream at any thread count.
    CampaignResult result;
    u64 attempts = 0;
    for (const TrialRecord &record : records) {
        mergeTrial(result, record);
        attempts += record.attempts;
        if (sink != nullptr)
            sink->onTrial(record);
    }

    if (stats != nullptr) {
        stats->jobs = jobs;
        stats->trials = records.size();
        stats->attempts = attempts;
        stats->wallSeconds =
            std::chrono::duration<double>(
                // riolint:allow(R2) wall-clock speedup stat only.
                std::chrono::steady_clock::now() - start)
                .count();
    }
    return result;
}

u64
CampaignResult::totalCrashes(SystemKind kind) const
{
    u64 total = 0;
    for (const auto &cell : cells[static_cast<int>(kind)])
        total += cell.crashes;
    return total;
}

u64
CampaignResult::totalCorruptions(SystemKind kind) const
{
    u64 total = 0;
    for (const auto &cell : cells[static_cast<int>(kind)])
        total += cell.corruptions;
    return total;
}

u64
CampaignResult::totalSaves(SystemKind kind) const
{
    u64 total = 0;
    for (const auto &cell : cells[static_cast<int>(kind)])
        total += cell.savesRuns;
    return total;
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
        const u64 crashes = result.totalCrashes(kind);
        const u64 corruptions = result.totalCorruptions(kind);
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
                   result.totalSaves(SystemKind::RioWithProtection));
    }
    out += "\n";
    return out;
}

} // namespace rio::harness
