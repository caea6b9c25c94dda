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
 * Knobs: RIO_SEED, RIO_ABL_TRIALS (26 = two per fault type),
 * RIO_T1_JOBS; defaults and help in knobTable() (harness/hconfig.cc).
 * The disk-fault intensity and double-crash rate are fixed at 1.0 and
 * 0.5, above the campaign's RIO_DISKFAULT_* defaults.
 */

#include <cstdio>
#include <vector>

#include "harness/crashcampaign.hh"
#include "harness/hconfig.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

constexpr double kIntensity = 1.0;       ///< fault/diskfault.hh.
constexpr double kDoubleCrashRate = 0.5; ///< Per crashed trial.

void
printTotals(const char *label, const TrialTotals &totals)
{
    const auto n = [&totals](const char *name) {
        return static_cast<unsigned long long>(totals.at(name));
    };
    std::printf("%s:\n", label);
    std::printf("  crashes                  : %llu of %llu trials\n",
                n("crashed"), n("trials"));
    std::printf("  double crashes fired     : %llu\n",
                n("doubleCrashFired"));
    std::printf("  device transient / bad-sector errors: %llu / %llu\n",
                n("diskTransientErrors"), n("diskBadSectorErrors"));
    std::printf("  recovery retried / remapped / abandoned sectors: "
                "%llu / %llu / %llu\n",
                n("retriedSectors"), n("remappedSectors"),
                n("abandonedSectors"));
    std::printf("  recoveries resumed from checkpoint: %llu\n",
                n("recoveryResumed"));
    std::printf("  read-only degraded runs  : %llu\n",
                n("readOnlyDegraded"));
    std::printf("  post-reboot corrupt runs : %llu\n",
                n("memtestDetected"));
    std::printf("  post-reboot corrupt files: %llu\n\n", n("corruptFiles"));
}

} // namespace

int
main()
{
    const AblationKnobs knobs = ablationKnobsFromEnv(26);

    std::printf("A8: faulty disk + double crash vs. the robustness "
                "machinery (intensity %.2f, double-crash rate %.2f, "
                "%u trials)\n\n",
                kIntensity, kDoubleCrashRate, knobs.trials);

    // Both arms run the same trial coordinates, so every seed and
    // every fault-model draw is identical.
    std::vector<Arm> arms;
    for (const bool machineryOn : {false, true}) {
        CampaignConfig config;
        config.seed = knobs.seed;
        config.diskFaultIntensity = kIntensity;
        config.doubleCrashRate = kDoubleCrashRate;
        config.ioRetryEnabled = machineryOn;
        config.reentrantRecovery = machineryOn;
        config.hardenedRecovery = true;
        arms.push_back({config, SystemKind::RioWithProtection, knobs.trials});
    }
    const auto records = runArms(arms, knobs.jobs);
    const TrialTotals off(records[0]);
    const TrialTotals on(records[1]);

    printTotals("machinery OFF (assume-success I/O, single-shot "
                "recovery)",
                off);
    printTotals("machinery ON (retry/remap + re-entrant recovery)", on);

    const u64 before = off.at("corruptFiles");
    const u64 after = on.at("corruptFiles");
    std::printf("robustness machinery: corrupt files %llu -> %llu %s\n",
                static_cast<unsigned long long>(before),
                static_cast<unsigned long long>(after),
                after < before ? "(strictly fewer)"
                               : "(NO reduction at this seed/intensity)");
    return 0;
}
