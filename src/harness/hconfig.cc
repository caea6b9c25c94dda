#include "harness/hconfig.hh"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string_view>

#include "harness/crashcampaign.hh"
#include "harness/crashmc.hh"
#include "harness/perfrun.hh"

namespace rio::harness
{

namespace
{

constexpr const char *kT1 = "table1_reliability, fig_mttf";
constexpr const char *kMc = "crashmc_main";

/** The only declaration of each RIO_* name. Fallbacks come from the
 *  config structs' defaults, or for a bench-local knob from its main. */
constexpr Knob kKnobs[] = {
    {"RIO_SEED",
     "table1_reliability, fig_mttf, crashmc_main, table2_performance, "
     "every ablation but ablation_protection",
     "1", "seed of every run"},
    {"RIO_T1_CRASHES", "table1_reliability", "50", "crashes per cell"},
    {"RIO_T1_WINDOW_S", kT1, "10",
     "observation window in simulated seconds"},
    {"RIO_T1_JOBS",
     "table1_reliability, fig_mttf, table2_performance, ablation_"
     "{diskfault,nv,protection,recovery,sdet_scale,shadow}",
     "all hardware threads", "worker threads (explicit: >= 1)"},
    {"RIO_T1_JSON", "table1_reliability", ".", "output directory"},
    {"RIO_T1_PROGRESS", kT1, "0", "1 = live trials/s line on stderr"},
    {"RIO_VERBOSE", "table1_reliability, fig_mttf, table2_performance",
     "0", "1 = print per-run details"},
    {"RIO_T1_POSTCRASH", kT1, "0", "post-crash damage on Rio (0 = off)"},
    {"RIO_T1_HARDENED", kT1, "1", "0 = trusting warm-reboot restore"},
    {"RIO_T1_IDLEFLUSH_NS", kT1, "0", "Rio idle write-back period, 0 = off"},
    {"RIO_DISKFAULT_INTENSITY", kT1, "0",
     "faulty-disk model intensity (fault/diskfault.hh)"},
    {"RIO_DISKFAULT_DOUBLECRASH", kT1, "0",
     "chance of a second crash during recovery"},
    {"RIO_DISKFAULT_RETRY", kT1, "1", "0 = assume-success disk I/O"},
    {"RIO_DISKFAULT_REENTRANT", kT1, "1", "0 = single-shot recovery"},
    {"RIO_NV_FAULT", kT1, "0", "NV decay and tearing at each crash"},
    {"RIO_T1_POWERCYCLE", kT1, "0", "> 0: Rio loses power every N steps"},
    {"RIO_T1_POWERCYCLES", kT1, "3", "power losses per such trial"},
    {"RIO_T1_NV", kT1, "0", "1 = add the rio-nv tier as a column"},
    {"RIO_MTTF_CRASHES", "fig_mttf", "4",
     "crashes per cell measured (0 = paper rates only)"},
    {"RIO_MC_OPS", kMc, "12", "memTest ops per bounded workload"},
    {"RIO_MC_JOBS", kMc, "all hardware threads", "worker threads"},
    {"RIO_MC_HARDENED", kMc, "1", "0 = trusting restore"},
    {"RIO_MC_SHADOW", kMc, "1", "0 = no registry shadow pages"},
    {"RIO_MC_NV", kMc, "0", "1 = mirror the registry into NV"},
    {"RIO_MC_JCHECKSUM", kMc, "1", "0 = no journal commit checksums"},
    {"RIO_MC_TORN", kMc, "0", "1 = tear a committed tx before reboot"},
    {"RIO_MC_PROGRESS", kMc, "0", "1 = live progress line on stderr"},
    {"RIO_MC_WORKLOAD", kMc, "all", "comma-separated workloads, or all"},
    {"RIO_MC_JSON", kMc, ".", "output directory"},
    {"RIO_PERF_MB", "table2_performance, policy_explorer",
     "40; 8 in policy_explorer", "cp+rm tree in MiB"},
    {"RIO_NV_JSON", "ablation_nv", "BENCH_nv.json", "output path"},
    {"RIO_ABL_MB", "ablation_protection", "8", "cp+rm tree in MiB"},
    {"RIO_ABL_OPS", "ablation_registry", "20000", "ops per arm (>= 1)"},
    {"RIO_ABL_TRIALS", "ablation_{recovery,diskfault,nv,shadow}",
     "26, 26, 4, 40", "trials per arm (>= 1)"},
    {"RIO_FUZZ_PROFILE", "rio_tests", "unset",
     "set: RegistryFuzz prints per-seed damage and verdict counts"},
};

} // namespace

std::span<const Knob>
knobTable()
{
    return kKnobs;
}

void
rejectUnknownKnobs()
{
    for (char **entry = environ; *entry != nullptr; ++entry) {
        const std::string_view name(*entry, std::strcspn(*entry, "="));
        const auto declares = [&](const Knob &k) { return name == k.name; };
        if (name.starts_with("RIO_") && std::ranges::none_of(kKnobs, declares))
            throw std::invalid_argument(
                std::string(name) + " is not a knob any binary reads "
                "(see knobTable() in harness/hconfig.cc); unset it");
    }
}

CampaignConfig
campaignConfigFromEnv()
{
    rejectUnknownKnobs();
    CampaignConfig c;
    c.seed = envU64("RIO_SEED", c.seed);
    c.crashesPerCell = envU32("RIO_T1_CRASHES", c.crashesPerCell);
    c.observationNs =
        envScaled("RIO_T1_WINDOW_S", c.observationNs / sim::kNsPerSec,
                  sim::kNsPerSec);
    c.verbose = envBool("RIO_VERBOSE", c.verbose);
    c.jobs = envU32("RIO_T1_JOBS", c.jobs, 1);
    c.progress = envBool("RIO_T1_PROGRESS", c.progress);
    c.jsonDir = envStr("RIO_T1_JSON", c.jsonDir.c_str());
    c.postCrashIntensity =
        envF64("RIO_T1_POSTCRASH", c.postCrashIntensity);
    c.hardenedRecovery = envBool("RIO_T1_HARDENED", c.hardenedRecovery);
    c.rioIdleFlushNs = envU64("RIO_T1_IDLEFLUSH_NS", c.rioIdleFlushNs);
    c.diskFaultIntensity =
        envF64("RIO_DISKFAULT_INTENSITY", c.diskFaultIntensity);
    c.doubleCrashRate =
        envF64("RIO_DISKFAULT_DOUBLECRASH", c.doubleCrashRate, 0.0, 1.0);
    c.ioRetryEnabled = envBool("RIO_DISKFAULT_RETRY", c.ioRetryEnabled);
    c.reentrantRecovery =
        envBool("RIO_DISKFAULT_REENTRANT", c.reentrantRecovery);
    c.nvFaultIntensity = envF64("RIO_NV_FAULT", c.nvFaultIntensity);
    c.powerCycleOps = envU64("RIO_T1_POWERCYCLE", c.powerCycleOps);
    c.powerCycles = envU32("RIO_T1_POWERCYCLES", c.powerCycles);
    if (envBool("RIO_T1_NV", false))
        c.systems.push_back(SystemKind::RioNvProtected);
    return c;
}

CrashMcConfig
crashMcConfigFromEnv()
{
    rejectUnknownKnobs();
    CrashMcConfig c;
    c.seed = envU64("RIO_SEED", c.seed);
    c.ops = envU32("RIO_MC_OPS", c.ops);
    c.jobs = envU32("RIO_MC_JOBS", c.jobs);
    c.hardened = envBool("RIO_MC_HARDENED", c.hardened);
    c.shadowMetadata = envBool("RIO_MC_SHADOW", c.shadowMetadata);
    c.nvBacked = envBool("RIO_MC_NV", c.nvBacked);
    c.journalChecksum = envBool("RIO_MC_JCHECKSUM", c.journalChecksum);
    c.tornCommit = envBool("RIO_MC_TORN", c.tornCommit);
    c.progress = envBool("RIO_MC_PROGRESS", c.progress);
    return c;
}

AblationKnobs
ablationKnobsFromEnv(u32 trials)
{
    rejectUnknownKnobs();
    return {.seed = envU64("RIO_SEED", 1),
            .trials = envU32("RIO_ABL_TRIALS", trials, 1),
            .jobs = envU32("RIO_T1_JOBS", 0, 1)};
}

PerfConfig
perfConfigFromEnv()
{
    rejectUnknownKnobs();
    PerfConfig c;
    c.seed = envU64("RIO_SEED", c.seed);
    c.cprmBytes = envScaled("RIO_PERF_MB", c.cprmBytes >> 20, 1ull << 20);
    c.verbose = envBool("RIO_VERBOSE", c.verbose);
    c.jobs = envU32("RIO_T1_JOBS", c.jobs, 1);
    return c;
}

} // namespace rio::harness
