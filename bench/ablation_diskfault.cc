/**
 * @file
 * Ablation A8: what the storage-robustness machinery — bounded
 * retry/remap in the OS I/O path plus checkpointed, re-entrant warm
 * reboot — buys on a faulty disk that also delivers a second crash
 * in the middle of recovery.
 *
 * Both arms run the same crash trials (identical per-trial seeds,
 * hence identical workloads, injected faults, disk-fault dice and
 * double-crash draws). The ON arm runs with the retry discipline and
 * re-entrant recovery enabled; the OFF arm is the paper-era baseline:
 * the I/O path assumes success and recovery is single-shot, so a
 * second crash restarts recovery from whatever the (already rebooted)
 * memory image happens to hold.
 *
 * Knobs: RIO_SEED, RIO_DF_TRIALS (26 = two per fault type),
 * RIO_DISKFAULT_INTENSITY, RIO_DISKFAULT_DOUBLECRASH (both default
 * higher here than in the campaign), RIO_T1_JOBS; defaults and help
 * in knobTable() (harness/hconfig.cc).
 */

#include <cstdio>
#include <vector>

#include "harness/crashcampaign.hh"
#include "harness/hconfig.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

struct Tally
{
    u64 trials = 0;
    u64 crashed = 0;
    u64 corruptTrials = 0; ///< Post-reboot verify found damage.
    u64 corruptFiles = 0;  ///< Damaged files, summed over trials.
    u64 doubleCrashes = 0; ///< Trials hit mid-recovery.
    u64 resumed = 0;       ///< Trials whose final pass resumed.
    u64 retriedSectors = 0;
    u64 remappedSectors = 0;
    u64 abandonedSectors = 0;
    u64 transientErrors = 0;
    u64 badSectorErrors = 0;
    u64 readOnlyRuns = 0;
};

Tally
runArm(bool machineryOn, u64 seed, double intensity,
       double doubleCrashRate, u32 trials, u32 jobs)
{
    CampaignConfig config;
    config.seed = seed;
    config.diskFaultIntensity = intensity;
    config.doubleCrashRate = doubleCrashRate;
    config.ioRetryEnabled = machineryOn;
    config.reentrantRecovery = machineryOn;
    config.hardenedRecovery = true;
    config.jobs = jobs;

    // Both arms run the same trial coordinates, so every seed and
    // every fault-model draw is identical.
    const std::vector<TrialRecord> records = CrashCampaign(config).runTrials(
        SystemKind::RioWithProtection, trials);

    Tally tally;
    for (const TrialRecord &record : records) {
        ++tally.trials;
        if (!record.crashed)
            continue;
        ++tally.crashed;
        if (record.memtestDetected)
            ++tally.corruptTrials;
        tally.corruptFiles += record.corruptFiles;
        if (record.doubleCrashFired)
            ++tally.doubleCrashes;
        if (record.recoveryResumed)
            ++tally.resumed;
        tally.retriedSectors += record.retriedSectors;
        tally.remappedSectors += record.remappedSectors;
        tally.abandonedSectors += record.abandonedSectors;
        tally.transientErrors += record.diskTransientErrors;
        tally.badSectorErrors += record.diskBadSectorErrors;
        if (record.readOnlyDegraded)
            ++tally.readOnlyRuns;
    }
    return tally;
}

void
printTally(const char *label, const Tally &tally)
{
    std::printf("%s:\n", label);
    std::printf("  crashes                  : %llu of %llu trials\n",
                static_cast<unsigned long long>(tally.crashed),
                static_cast<unsigned long long>(tally.trials));
    std::printf("  double crashes fired     : %llu\n",
                static_cast<unsigned long long>(tally.doubleCrashes));
    std::printf("  device transient / bad-sector errors: "
                "%llu / %llu\n",
                static_cast<unsigned long long>(
                    tally.transientErrors),
                static_cast<unsigned long long>(
                    tally.badSectorErrors));
    std::printf("  recovery retried / remapped / abandoned sectors: "
                "%llu / %llu / %llu\n",
                static_cast<unsigned long long>(tally.retriedSectors),
                static_cast<unsigned long long>(
                    tally.remappedSectors),
                static_cast<unsigned long long>(
                    tally.abandonedSectors));
    std::printf("  recoveries resumed from checkpoint: %llu\n",
                static_cast<unsigned long long>(tally.resumed));
    std::printf("  read-only degraded runs  : %llu\n",
                static_cast<unsigned long long>(tally.readOnlyRuns));
    std::printf("  post-reboot corrupt runs : %llu\n",
                static_cast<unsigned long long>(tally.corruptTrials));
    std::printf("  post-reboot corrupt files: %llu\n\n",
                static_cast<unsigned long long>(tally.corruptFiles));
}

} // namespace

int
main()
{
    rejectUnknownKnobs();
    const u64 seed = envU64("RIO_SEED", 1);
    const double intensity = envF64("RIO_DISKFAULT_INTENSITY", 1.0);
    const double doubleCrashRate =
        envF64("RIO_DISKFAULT_DOUBLECRASH", 0.5);
    const u32 trials = envU32("RIO_DF_TRIALS", 26, 1);
    const u32 jobs = envU32("RIO_T1_JOBS", 0, 1);

    std::printf("A8: faulty disk + double crash vs. the robustness "
                "machinery (intensity %.2f, double-crash rate %.2f, "
                "%u trials)\n\n",
                intensity, doubleCrashRate, trials);

    const Tally off = runArm(false, seed, intensity, doubleCrashRate,
                             trials, jobs);
    const Tally on = runArm(true, seed, intensity, doubleCrashRate,
                            trials, jobs);

    printTally("machinery OFF (assume-success I/O, single-shot "
               "recovery)",
               off);
    printTally("machinery ON (retry/remap + re-entrant recovery)",
               on);

    if (on.corruptFiles < off.corruptFiles) {
        std::printf("robustness machinery: corrupt files %llu -> "
                    "%llu (strictly fewer)\n",
                    static_cast<unsigned long long>(off.corruptFiles),
                    static_cast<unsigned long long>(on.corruptFiles));
    } else {
        std::printf("robustness machinery: corrupt files %llu -> "
                    "%llu (NO reduction at this seed/intensity)\n",
                    static_cast<unsigned long long>(off.corruptFiles),
                    static_cast<unsigned long long>(on.corruptFiles));
    }
    return 0;
}
