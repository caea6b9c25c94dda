/**
 * @file
 * Ablation A7: what the hardened RestorePolicy buys when the
 * surviving memory image itself is damaged.
 *
 * The paper's premise (section 3) is that a crashed OS leaves memory
 * in an arbitrary state; the post-crash corruption stage
 * (fault/postcrash.hh) makes that concrete by mutating registry
 * entries, registered pages and shadow copies after the crash but
 * before the warm reboot. This bench runs the same crash trials —
 * identical per-trial seeds, hence identical faults, crashes and
 * corruption-stage damage — under RestorePolicy::trusting() (the
 * pre-hardening behaviour: restore whatever the registry points at)
 * and RestorePolicy::hardened(), and compares post-reboot damage.
 *
 * Knobs: RIO_SEED, RIO_REC_TRIALS (26 = two per fault type),
 * RIO_REC_INTENSITY, RIO_REC_FLUSH_NS, RIO_T1_JOBS; defaults and help
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
    u64 corruptTrials = 0;   ///< Post-reboot verify found damage.
    u64 corruptFiles = 0;    ///< Damaged files, summed over trials.
    u64 metadataQuarantined = 0;
    u64 duplicateClaims = 0;
    u64 boundsViolations = 0;
    u64 metadataUnrestorable = 0;
    u64 postCrashOps = 0;
};

Tally
runPolicy(bool hardened, u64 seed, double intensity, u32 trials,
          u32 jobs)
{
    CampaignConfig config;
    config.seed = seed;
    config.postCrashIntensity = intensity;
    config.hardenedRecovery = hardened;
    // Idle-period write-back keeps the on-disk metadata copies
    // realistically fresh; without it a 10-second simulated run
    // leaves the disk at its boot-time state, and "restore garbage"
    // and "keep the stale copy" lose the same young files.
    config.rioIdleFlushNs =
        envU64("RIO_REC_FLUSH_NS", 1'000'000'000);
    config.jobs = jobs;

    // Trials spread over the 13 fault types, so every crash shape
    // feeds the recovery path; both policies run the same trial
    // coordinates, so every seed, fault and corruption-stage mutation
    // is identical.
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
        tally.metadataQuarantined += record.metadataQuarantined;
        tally.duplicateClaims += record.duplicateClaims;
        tally.boundsViolations += record.boundsViolations;
        tally.metadataUnrestorable += record.metadataUnrestorable;
        tally.postCrashOps += record.postCrashOps;
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
    std::printf("  corruption-stage ops     : %llu\n",
                static_cast<unsigned long long>(tally.postCrashOps));
    std::printf("  post-reboot corrupt runs : %llu\n",
                static_cast<unsigned long long>(tally.corruptTrials));
    std::printf("  post-reboot corrupt files: %llu\n",
                static_cast<unsigned long long>(tally.corruptFiles));
    std::printf("  quarantined / contested / out-of-bounds / "
                "unrestorable: %llu / %llu / %llu / %llu\n\n",
                static_cast<unsigned long long>(
                    tally.metadataQuarantined),
                static_cast<unsigned long long>(
                    tally.duplicateClaims),
                static_cast<unsigned long long>(
                    tally.boundsViolations),
                static_cast<unsigned long long>(
                    tally.metadataUnrestorable));
}

} // namespace

int
main()
{
    rejectUnknownKnobs();
    const u64 seed = envU64("RIO_SEED", 1);
    const double intensity = envF64("RIO_REC_INTENSITY", 1.0);
    const u32 trials = envU32("RIO_REC_TRIALS", 26, 1);
    const u32 jobs = envU32("RIO_T1_JOBS", 0, 1);

    std::printf("A7: recovery hardening under post-crash image "
                "corruption (intensity %.2f, %u trials)\n\n",
                intensity, trials);

    const Tally trusting =
        runPolicy(false, seed, intensity, trials, jobs);
    const Tally hardened =
        runPolicy(true, seed, intensity, trials, jobs);

    printTally("RestorePolicy::trusting (pre-hardening restore)",
               trusting);
    printTally("RestorePolicy::hardened (quarantine + claim checks)",
               hardened);

    if (hardened.corruptFiles < trusting.corruptFiles) {
        std::printf("hardening: corrupt files %llu -> %llu "
                    "(strictly fewer)\n",
                    static_cast<unsigned long long>(
                        trusting.corruptFiles),
                    static_cast<unsigned long long>(
                        hardened.corruptFiles));
    } else {
        std::printf("hardening: corrupt files %llu -> %llu "
                    "(NO reduction at this seed/intensity)\n",
                    static_cast<unsigned long long>(
                        trusting.corruptFiles),
                    static_cast<unsigned long long>(
                        hardened.corruptFiles));
    }
    return 0;
}
