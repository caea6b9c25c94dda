/**
 * @file
 * Ablation A11: the NV-backed Rio tier under intermittent power.
 *
 * Every trial boots the rio-nv system (registry + shadow pages
 * mirrored into battery-backed DRAM, paper section 7), then loses
 * power every few thousand scheduler steps — up to three outages per
 * trial — warm-rebooting through the NV graft each time while the
 * NV fault model decays bits and tears in-flight lines at every
 * outage. Two arms over identical per-trial seeds:
 *
 *   - hardened: RestorePolicy::hardened(); the graft takes an NV
 *     slot only when it is provably better than the live one.
 *     Expected: zero corrupt files across the whole sweep.
 *   - trusting: RestorePolicy::trusting(); the graft copies the
 *     decayed mirror over the live registry wholesale. Expected:
 *     measurable corruption — the arm exists to show the hardened
 *     merge is doing the work, not the mirror's mere presence.
 *
 * The sweep covers power-loss intervals down to and below 5000
 * sim-ops, and the committed BENCH_nv.json records the corruption
 * anchor plus recovery-throughput accounting (workload ops per
 * simulated recovery nanosecond). Nothing host-timed is emitted, so
 * the artifact is byte-stable at a fixed seed.
 *
 * Knobs: RIO_SEED, RIO_NV_TRIALS (trials per interval per arm),
 * RIO_NV_JSON (output path), RIO_T1_JOBS; defaults and help in
 * knobTable() (harness/hconfig.cc).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/crashcampaign.hh"
#include "harness/hconfig.hh"

#include "emit_bench.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

/** The intermittent-power sweep: outage intervals in sim-ops. */
constexpr u64 kIntervals[] = {1000, 2500, 5000};

struct Tally
{
    u64 trials = 0;
    u64 crashed = 0;
    u64 powerCycles = 0;
    u64 corruptTrials = 0;
    u64 corruptFiles = 0;
    u64 nvEntriesGrafted = 0;
    u64 nvShadowsUsed = 0;
    u64 nvBitsFlipped = 0;
    u64 nvLinesTorn = 0;
    u64 nvMirrorWrites = 0;
    u64 workloadOps = 0;
    u64 recoveryNs = 0;
};

Tally
runArm(bool hardened, u64 seed, u64 interval, u32 trials, u32 jobs)
{
    CampaignConfig config;
    config.seed = seed;
    config.hardenedRecovery = hardened;
    config.nvFaultIntensity = 1.0;
    config.powerCycleOps = interval;
    config.powerCycles = 3;
    // NV-repairable DRAM damage at every outage: smashed magics,
    // cross-linked claims/pages, smashed shadows — the classes the
    // mirror can provably repair. Identity-field bit flips, page
    // scribbles and tail truncation stay off; no registry mirror
    // resurrects those, and this ablation isolates the merge story.
    config.postCrashIntensity = 1.0;
    config.postCrashNvRepairable = true;
    // The sweep's multiple warm reboots cost serious simulated time;
    // a roomy window lets every trial spend its full outage budget.
    config.observationNs = 600 * sim::kNsPerSec;
    config.jobs = jobs;

    // The power-cycle path injects no faults, so spreading the trials
    // over the fault types only diversifies their seeds. Both arms
    // see identical coordinates.
    const std::vector<TrialRecord> records = CrashCampaign(config).runTrials(
        SystemKind::RioNvProtected, trials);

    Tally tally;
    for (const TrialRecord &record : records) {
        ++tally.trials;
        if (!record.crashed)
            continue;
        ++tally.crashed;
        if (record.corrupt)
            ++tally.corruptTrials;
        tally.corruptFiles += record.corruptFiles;
        tally.powerCycles += record.powerCycles;
        tally.nvEntriesGrafted += record.nvEntriesGrafted;
        tally.nvShadowsUsed += record.nvShadowsUsed;
        tally.nvBitsFlipped += record.nvBitsFlipped;
        tally.nvLinesTorn += record.nvLinesTorn;
        tally.nvMirrorWrites += record.nvMirrorWrites;
        tally.workloadOps += record.workloadOps;
        tally.recoveryNs += record.recoveryNs;
    }
    return tally;
}

void
printTally(const char *label, u64 interval, const Tally &tally)
{
    std::printf("  %s @ %llu ops/outage: %llu trials, %llu outages, "
                "grafted %llu entries, %llu NV shadows, decay "
                "%llu bits / %llu lines, corrupt %llu files in "
                "%llu trials\n",
                label, static_cast<unsigned long long>(interval),
                static_cast<unsigned long long>(tally.trials),
                static_cast<unsigned long long>(tally.powerCycles),
                static_cast<unsigned long long>(
                    tally.nvEntriesGrafted),
                static_cast<unsigned long long>(tally.nvShadowsUsed),
                static_cast<unsigned long long>(tally.nvBitsFlipped),
                static_cast<unsigned long long>(tally.nvLinesTorn),
                static_cast<unsigned long long>(tally.corruptFiles),
                static_cast<unsigned long long>(
                    tally.corruptTrials));
}

benchio::JsonObject
tallyJson(const Tally &tally)
{
    benchio::JsonObject out;
    out.put("trials", tally.trials);
    out.put("crashed", tally.crashed);
    out.put("power_cycles", tally.powerCycles);
    out.put("corrupt_trials", tally.corruptTrials);
    out.put("corrupt_files", tally.corruptFiles);
    out.put("nv_entries_grafted", tally.nvEntriesGrafted);
    out.put("nv_shadows_used", tally.nvShadowsUsed);
    out.put("nv_bits_flipped", tally.nvBitsFlipped);
    out.put("nv_lines_torn", tally.nvLinesTorn);
    out.put("nv_mirror_writes", tally.nvMirrorWrites);
    out.put("workload_ops", tally.workloadOps);
    out.put("recovery_sim_ns", tally.recoveryNs);
    // Recovery throughput: how much workload each simulated second
    // of warm-reboot time bought across the outage series.
    out.put("ops_per_recovery_ms",
            tally.recoveryNs > 0
                ? static_cast<double>(tally.workloadOps) * 1e6 /
                      static_cast<double>(tally.recoveryNs)
                : 0.0);
    return out;
}

} // namespace

int
main()
{
    rejectUnknownKnobs();
    const u64 seed = envU64("RIO_SEED", 1);
    const u32 trials = envU32("RIO_NV_TRIALS", 4, 1);
    const u32 jobs = envU32("RIO_T1_JOBS", 0, 1);
    const std::string jsonPath =
        envStr("RIO_NV_JSON", "BENCH_nv.json");

    std::printf("A11: rio-nv under intermittent power (NV decay on, "
                "%u trials per interval per arm)\n\n",
                trials);

    u64 hardenedCorrupt = 0;
    u64 trustingCorrupt = 0;
    u64 hardenedGrafts = 0;

    benchio::JsonObject sweep;
    for (const u64 interval : kIntervals) {
        const Tally hard = runArm(true, seed, interval, trials, jobs);
        const Tally trust =
            runArm(false, seed, interval, trials, jobs);
        printTally("hardened", interval, hard);
        printTally("trusting", interval, trust);
        hardenedCorrupt += hard.corruptFiles;
        trustingCorrupt += trust.corruptFiles;
        hardenedGrafts += hard.nvEntriesGrafted + hard.nvShadowsUsed;

        benchio::JsonObject point;
        point.put("hardened", tallyJson(hard));
        point.put("trusting", tallyJson(trust));
        sweep.put("interval_" + std::to_string(interval), point);
    }

    std::printf("\nsweep total: hardened %llu corrupt files, "
                "trusting %llu corrupt files\n",
                static_cast<unsigned long long>(hardenedCorrupt),
                static_cast<unsigned long long>(trustingCorrupt));
    if (hardenedCorrupt == 0 && trustingCorrupt > 0) {
        std::printf("rio-nv hardened merge: survives the sweep "
                    "clean; trusting graft does not\n");
    } else {
        std::printf("WARNING: expected hardened=0 < trusting at "
                    "this seed\n");
    }

    benchio::JsonObject config;
    config.put("seed", seed);
    config.put("trials_per_interval", static_cast<u64>(trials));
    config.put("power_cycles_per_trial", static_cast<u64>(3));
    config.put("nv_fault_intensity", 1.0);

    benchio::JsonObject headline;
    headline.put("hardened_corrupt_files", hardenedCorrupt);
    headline.put("trusting_corrupt_files", trustingCorrupt);
    headline.put("hardened_survives_sweep", hardenedCorrupt == 0);
    headline.put("trusting_corrupts", trustingCorrupt > 0);
    headline.put("nv_restores_exercised", hardenedGrafts);

    benchio::JsonObject body;
    body.put("config", config);
    body.put("headline", headline);
    body.put("sweep", sweep);
    if (!benchio::writeBenchFile(jsonPath, "nv", 1, body))
        return 1;
    return 0;
}
