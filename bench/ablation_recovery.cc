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
 * Knobs: RIO_SEED, RIO_ABL_TRIALS (26 = two per fault type),
 * RIO_T1_JOBS; defaults and help in knobTable() (harness/hconfig.cc).
 */

#include <cstdio>
#include <vector>

#include "harness/crashcampaign.hh"
#include "harness/hconfig.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

constexpr double kIntensity = 1.0; ///< Post-crash corruption stage.

void
printTotals(const char *label, const TrialTotals &totals)
{
    const auto n = [&totals](const char *name) {
        return static_cast<unsigned long long>(totals.at(name));
    };
    std::printf("%s:\n", label);
    std::printf("  crashes                  : %llu of %llu trials\n",
                n("crashed"), n("trials"));
    std::printf("  corruption-stage ops     : %llu\n", n("postCrashOps"));
    std::printf("  post-reboot corrupt runs : %llu\n",
                n("memtestDetected"));
    std::printf("  post-reboot corrupt files: %llu\n", n("corruptFiles"));
    std::printf("  quarantined / contested / out-of-bounds / "
                "unrestorable: %llu / %llu / %llu / %llu\n\n",
                n("metadataQuarantined"), n("duplicateClaims"),
                n("boundsViolations"), n("metadataUnrestorable"));
}

} // namespace

int
main()
{
    const AblationKnobs knobs = ablationKnobsFromEnv(26);

    std::printf("A7: recovery hardening under post-crash image "
                "corruption (intensity %.2f, %u trials)\n\n",
                kIntensity, knobs.trials);

    // Trials spread over the 13 fault types, so every crash shape
    // feeds the recovery path; both policies run the same trial
    // coordinates, so every seed, fault and corruption-stage mutation
    // is identical.
    std::vector<Arm> arms;
    for (const bool hardened : {false, true}) {
        CampaignConfig config;
        config.seed = knobs.seed;
        config.postCrashIntensity = kIntensity;
        config.hardenedRecovery = hardened;
        // Idle-period write-back keeps the on-disk metadata copies
        // realistically fresh; without it a 10-second simulated run
        // leaves the disk at its boot-time state, and "restore
        // garbage" and "keep the stale copy" lose the same young
        // files.
        config.rioIdleFlushNs = sim::kNsPerSec;
        arms.push_back({config, SystemKind::RioWithProtection, knobs.trials});
    }
    const auto records = runArms(arms, knobs.jobs);
    const TrialTotals trusting(records[0]);
    const TrialTotals hardened(records[1]);

    printTotals("RestorePolicy::trusting (pre-hardening restore)",
                trusting);
    printTotals("RestorePolicy::hardened (quarantine + claim checks)",
                hardened);

    const u64 before = trusting.at("corruptFiles");
    const u64 after = hardened.at("corruptFiles");
    std::printf("hardening: corrupt files %llu -> %llu %s\n",
                static_cast<unsigned long long>(before),
                static_cast<unsigned long long>(after),
                after < before ? "(strictly fewer)"
                               : "(NO reduction at this seed/intensity)");
    return 0;
}
