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
 * anchor, each arm's trial totals under their trials.jsonl names and
 * its recovery throughput (workload ops per simulated recovery
 * millisecond). Nothing host-timed is emitted, so the artifact is
 * byte-stable at a fixed seed.
 *
 * Knobs: RIO_SEED, RIO_ABL_TRIALS (trials per interval per arm),
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

void
printTotals(const char *label, u64 interval, const TrialTotals &totals)
{
    const auto n = [&totals](const char *name) {
        return static_cast<unsigned long long>(totals.at(name));
    };
    std::printf("  %s @ %llu ops/outage: %llu trials, %llu outages, "
                "grafted %llu entries, %llu NV shadows, decay "
                "%llu bits / %llu lines, corrupt %llu files in "
                "%llu trials\n",
                label, static_cast<unsigned long long>(interval),
                n("trials"), n("powerCycles"), n("nvEntriesGrafted"),
                n("nvShadowsUsed"), n("nvBitsFlipped"), n("nvLinesTorn"),
                n("corruptFiles"), n("corrupt"));
}

benchio::JsonObject
totalsJson(const TrialTotals &totals)
{
    benchio::JsonObject out;
    for (const auto &[name, total] : totals.entries)
        out.put(name, total);
    // Recovery throughput: how much workload each simulated second
    // of warm-reboot time bought across the outage series.
    const u64 recoveryNs = totals.at("recoveryNs");
    out.put("ops_per_recovery_ms",
            recoveryNs > 0 ? static_cast<double>(totals.at("workloadOps")) *
                                 1e6 / static_cast<double>(recoveryNs)
                           : 0.0);
    return out;
}

} // namespace

int
main()
{
    const AblationKnobs knobs = ablationKnobsFromEnv(4);
    const std::string jsonPath = envStr("RIO_NV_JSON", "BENCH_nv.json");

    std::printf("A11: rio-nv under intermittent power (NV decay on, "
                "%u trials per interval per arm)\n\n",
                knobs.trials);

    // The power-cycle path injects no faults, so spreading the trials
    // over the fault types only diversifies their seeds. Both arms
    // of an interval see identical coordinates.
    std::vector<Arm> arms;
    for (const u64 interval : kIntervals) {
        for (const bool hardened : {true, false}) {
            CampaignConfig config;
            config.seed = knobs.seed;
            config.hardenedRecovery = hardened;
            config.nvFaultIntensity = 1.0;
            config.powerCycleOps = interval;
            config.powerCycles = 3;
            // NV-repairable DRAM damage at every outage: smashed
            // magics, cross-linked claims/pages, smashed shadows — the
            // classes the mirror can provably repair. Identity-field
            // bit flips, page scribbles and tail truncation stay off;
            // no registry mirror resurrects those, and this ablation
            // isolates the merge story.
            config.postCrashIntensity = 1.0;
            config.postCrashNvRepairable = true;
            // The sweep's multiple warm reboots cost serious simulated
            // time; a roomy window lets every trial spend its full
            // outage budget.
            config.observationNs = 600 * sim::kNsPerSec;
            arms.push_back({config, SystemKind::RioNvProtected, knobs.trials});
        }
    }
    const auto records = runArms(arms, knobs.jobs);

    u64 hardenedCorrupt = 0;
    u64 trustingCorrupt = 0;
    u64 hardenedGrafts = 0;

    benchio::JsonObject sweep;
    for (std::size_t i = 0; i < std::size(kIntervals); ++i) {
        const TrialTotals hard(records[2 * i]);
        const TrialTotals trust(records[2 * i + 1]);
        printTotals("hardened", kIntervals[i], hard);
        printTotals("trusting", kIntervals[i], trust);
        hardenedCorrupt += hard.at("corruptFiles");
        trustingCorrupt += trust.at("corruptFiles");
        hardenedGrafts +=
            hard.at("nvEntriesGrafted") + hard.at("nvShadowsUsed");

        sweep.put("interval_" + std::to_string(kIntervals[i]),
                  benchio::JsonObject()
                      .put("hardened", totalsJson(hard))
                      .put("trusting", totalsJson(trust)));
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

    benchio::JsonObject body;
    body.put("config", benchio::JsonObject()
                           .put("seed", knobs.seed)
                           .put("trials_per_interval", knobs.trials)
                           .put("power_cycles_per_trial", 3)
                           .put("nv_fault_intensity", 1.0))
        .put("headline",
             benchio::JsonObject()
                 .put("hardened_corrupt_files", hardenedCorrupt)
                 .put("trusting_corrupt_files", trustingCorrupt)
                 .put("hardened_survives_sweep", hardenedCorrupt == 0)
                 .put("trusting_corrupts", trustingCorrupt > 0)
                 .put("nv_restores_exercised", hardenedGrafts))
        .put("sweep", sweep);
    return benchio::writeBenchFile(jsonPath, "nv", 2, body) ? 0 : 1;
}
