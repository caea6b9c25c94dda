/**
 * @file
 * The Table 1 experiment: for each of the paper's three systems
 * (disk-based write-through, Rio without protection, Rio with
 * protection) and each of the 13 fault types, crash the machine
 * under fault injection, reboot (warm reboot for the Rio systems),
 * and measure how often file data was corrupted. A fourth system —
 * rio-nv, Rio with the registry mirrored into battery-backed DRAM
 * (paper section 7) — and an intermittent-power trial mode
 * (CampaignConfig::powerCycleOps) extend the grid; both are off by
 * default and the classic three-system campaign is byte-identical
 * with the NV settings at their defaults.
 *
 * Methodology follows section 3: 20 faults per run injected into a
 * running system (memTest plus four looping copies of Andrew);
 * runs that do not crash within the observation window are
 * discarded and retried; corruption is detected by the registry
 * checksums (direct corruption) and by memTest's replay comparison
 * (direct and indirect corruption).
 *
 * One loop runs every trial: a series of powered segments, each
 * ended by a crash that is followed by detection pass 1, teardown,
 * post-crash damage and a bounded series of recovery passes; the
 * replay comparison runs once, at the end. A fault-injection trial
 * stops after its first crash. An intermittent-power trial loses
 * power on a schedule instead and rides through several outages
 * before it is verified.
 *
 * The campaign fans out over a worker pool: each (system, fault,
 * trial) task owns a private sim::Machine and a seed derived purely
 * from its coordinates (splitmix64 chain, no shared RNG state), and
 * discard-retries stay inside the task, so the merged result and
 * every per-trial record are bit-identical at any thread count.
 */

#ifndef RIO_HARNESS_CRASHCAMPAIGN_HH
#define RIO_HARNESS_CRASHCAMPAIGN_HH

#include <array>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/warmreboot.hh"
#include "fault/injector.hh"
#include "harness/hconfig.hh"
#include "harness/sink.hh"

namespace rio::harness
{

/** The three systems compared in Table 1, plus the rio-nv tier
 *  (NV-mirrored registry; paper section 7's battery-backed DRAM). */
enum class SystemKind : u8
{
    DiskWriteThrough, ///< Default kernel; memTest fsyncs every write.
    RioNoProtection,
    RioWithProtection,
    RioNvProtected, ///< Rio w/ protection + NV registry mirror.
};

/** Number of SystemKind values (rows in CampaignResult::cells). */
constexpr std::size_t kNumSystemKinds = 4;

const char *systemKindName(SystemKind kind);

/** One stateless round of splitmix64 (Vigna's finalizer). */
constexpr u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Pure per-trial seed: a splitmix64 chain over the campaign seed and
 * the trial coordinates. No shared RNG, no iteration-order
 * dependence — the parallel determinism guarantee rests on this
 * being a function of its arguments only.
 */
constexpr u64
trialSeed(u64 campaignSeed, SystemKind kind, fault::FaultType type,
          u32 trialIndex)
{
    u64 s = mix64(campaignSeed ^ 0x52696f543162ull); // "RioT1b"
    s = mix64(s ^ static_cast<u64>(kind));
    s = mix64(s ^ static_cast<u64>(type));
    s = mix64(s ^ static_cast<u64>(trialIndex));
    return s;
}

/** Seed for retry @p attempt of a trial (attempt 0 = first run). */
constexpr u64
attemptSeed(u64 trialSeedValue, u32 attempt)
{
    return mix64(trialSeedValue ^
                 (static_cast<u64>(attempt) * 0xd1342543de82ef95ull));
}

/** One attempt: its outcome plus the final warm reboot's report. */
struct CrashRunResult : TrialOutcome
{
    bool discarded = false; ///< No crash in the observation window.
    core::WarmRebootReport warm;
};

struct CampaignCell
{
    u64 crashes = 0;
    u64 corruptions = 0;
    u64 discards = 0;
    u64 attempts = 0;
    u64 savesRuns = 0; ///< Runs where protection stopped a store.

    bool operator==(const CampaignCell &) const = default;
};

/** @{ Section 3's methodology (see above), fixed; a volume not
 *  recovered after kMaxRecoveryPasses warm reboots is lost. */
constexpr u32 kFaultsPerRun = 20;
constexpr SimNs kInjectSpacingNs = 100'000'000;
constexpr u32 kAndrewCopies = 4;
constexpr u32 kMaxRecoveryPasses = 4;
/** @} */

/** Plain values, defaulting to the classic Table 1 campaign; its two
 *  binaries read their knobs via campaignConfigFromEnv. */
struct CampaignConfig
{
    u64 seed = 1;
    u32 crashesPerCell = 50;
    /** Observation window; no crash by then discards the run. */
    SimNs observationNs = 10 * sim::kNsPerSec;
    /** Attempt budget per crash (discarded runs are retried). */
    u32 maxAttemptsPerCrash = 25;
    bool verbose = false;

    /** Worker threads; 0 = all hardware threads. */
    u32 jobs = 0;
    /** Live progress line on stderr. */
    bool progress = false;
    /** Directory for table1.json and trials.jsonl; table1_reliability
     *  writes to the working directory when empty. */
    std::string jsonDir;

    /** Post-crash corruption stage (fault/postcrash.hh) applied to
     *  the surviving image of the Rio systems before warm reboot;
     *  0 = off, preserving the paper's Table 1 semantics. */
    double postCrashIntensity = 0.0;
    /** Warm-reboot RestorePolicy: hardened() when true, trusting()
     *  when false. */
    bool hardenedRecovery = true;
    /** Restrict the post-crash corruptor to the damage classes the
     *  NV mirror can provably repair: smashed magics, cross-linked
     *  claims/pages, smashed shadows. Random bit flips stay off —
     *  a flip in an identity field (ino, dev, offset) passes every
     *  content check and is indistinguishable from a legitimately
     *  newer DRAM value — as do page scribbles and tail truncation
     *  (no registry mirror resurrects a destroyed data page). The
     *  corruptor's own NV classes stay off too: decaying, tearing,
     *  or beheading the mirror damages the repair medium itself,
     *  which no merge rule can compensate for. The NV ablation sets
     *  this to show hardened rio-nv grafting back to zero
     *  corruption. */
    bool postCrashNvRepairable = false;
    /** When > 0, enable Rio's idle-period write-back with this
     *  period. The short simulated runs never age metadata to disk
     *  the way hours of real uptime would, so recovery-hardening
     *  experiments use this to give the quarantine path a disk copy
     *  of realistic freshness. */
    SimNs rioIdleFlushNs = 0;

    /** @{ Faulty-disk + double-crash trial dimensions. The fault
     *  model is installed on both the fs disk and the swap device
     *  *after* the initial format, so both ablation arms start from
     *  an identical healthy file system. */
    /** fault/diskfault.hh intensity; 0 = pristine device. */
    double diskFaultIntensity = 0.0;
    /** Probability a crashed trial takes a second crash during
     *  recovery, uniform over recovery phases. */
    double doubleCrashRate = 0.0;
    /** Bounded retry/remap discipline in the OS I/O path. */
    bool ioRetryEnabled = true;
    /** Checkpointed, resumable warm reboot. */
    bool reentrantRecovery = true;
    /** @} */

    /** Lockdep rank validator on the kernel lock table. Pure
     *  bookkeeping: trial records must be byte-identical with it on
     *  or off, and the determinism tests prove it. */
    bool lockdep = true;

    /** @{ rio-nv + intermittent-power dimensions. All default off;
     *  with every one at its default the three paper systems draw the
     *  same RNG streams and get the same results as without them. */
    /** fault/nvfault.hh intensity applied to the NV region at each
     *  crash; 0 = pristine NV. Only meaningful for
     *  SystemKind::RioNvProtected — other systems have no NV
     *  region. */
    double nvFaultIntensity = 0.0;
    /** Intermittent power: when > 0, Rio trials skip fault injection
     *  and instead lose power every this many scheduler steps,
     *  taking a bounded series of warm reboots in one trial.
     *  0 = classic Table 1 semantics. */
    u64 powerCycleOps = 0;
    /** Bound on power-loss crashes per intermittent-power trial. */
    u32 powerCycles = 3;
    /** @} */

    /** Campaign slice; defaults cover the paper's full 3 x 13 grid.
     *  The rio-nv tier goes after them as a fourth Table 1 column
     *  (an extra column, never a reordering, so the legacy three
     *  systems' trials keep their seeds and bytes). Reduced slices
     *  keep the determinism tests fast. */
    std::vector<SystemKind> systems{SystemKind::DiskWriteThrough,
                                    SystemKind::RioNoProtection,
                                    SystemKind::RioWithProtection};
    std::vector<fault::FaultType> faults = allFaultTypes();

    static std::vector<fault::FaultType> allFaultTypes();
};

struct CampaignResult
{
    std::array<std::array<CampaignCell, fault::kNumFaultTypes>,
               kNumSystemKinds>
        cells{};
    std::set<std::string> uniqueErrorMessages;
    std::array<u64, 6> crashCauseCounts{}; ///< By sim::CrashCause.

    /** One system's cells summed. */
    CampaignCell total(SystemKind kind) const;

    bool operator==(const CampaignResult &) const = default;
};

class CrashCampaign
{
  public:
    explicit CrashCampaign(const CampaignConfig &config);

    /**
     * One attempt of a trial; it is discarded when no crash comes
     * within the observation window. A fault-injection attempt
     * crashes under injected faults and is recovered once. When
     * config.powerCycleOps > 0, a Rio attempt instead loses power
     * every powerCycleOps scheduler steps and takes up to
     * config.powerCycles warm reboots, with the workload carried
     * across by MemTest::rebind, before its survivors are verified.
     */
    CrashRunResult runOne(SystemKind kind, fault::FaultType type,
                          u64 seed);

    /**
     * One trial: retry runOne with attemptSeed(trialSeed, n) until a
     * crash or the attempt budget runs out. Pure in (config, kind,
     * type, trial) — safe to run from any worker thread.
     */
    TrialRecord runTrial(SystemKind kind, fault::FaultType type,
                         u32 trial);

    /** Run crashesPerCell trials for one (system, fault) cell; a
     *  trial that exhausts its attempt budget yields no crash. */
    CampaignCell runCell(SystemKind kind, fault::FaultType type,
                         CampaignResult &result);

    /**
     * The full campaign (config.systems x config.faults), fanned out
     * over config.jobs workers and merged by cell index. @p records,
     * if given, receives every trial record in deterministic order;
     * @p stats, if given, receives host wall-clock accounting.
     */
    CampaignResult runAll(std::vector<TrialRecord> *records = nullptr,
                          CampaignStats *stats = nullptr);

    /** Render the result in the paper's Table 1 shape. */
    static std::string renderTable1(const CampaignResult &result,
                                    const CampaignConfig &config);

  private:
    void mergeTrial(CampaignResult &result,
                    const TrialRecord &record) const;

    CampaignConfig config_;
};

/** @p trials trials of @p system under @p config: one arm of an
 *  ablation, or one cell of runAll. */
struct Arm
{
    CampaignConfig config;
    SystemKind system;
    u32 trials;
};

/**
 * Every arm's trials on one pool of @p jobs workers (0 = all hardware
 * threads), merged by index: records[a][t] is arm a's trial t, which
 * runs config.faults[t mod n] as trial t / n, so its seeds depend on
 * t alone and arms with the same seed share every coordinate.
 * @p progress keeps a live trials/s line on stderr.
 */
std::vector<std::vector<TrialRecord>>
runArms(std::span<const Arm> arms, u32 jobs, bool progress = false);

} // namespace rio::harness

#endif // RIO_HARNESS_CRASHCAMPAIGN_HH
