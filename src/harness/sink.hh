/**
 * @file
 * Structured observability for the crash campaign: one record per
 * trial, its JSONL line, and a machine-readable summary
 * (`table1.json`) mirroring the text table.
 *
 * Records are emitted in deterministic (cell-major, trial-minor)
 * order after the parallel merge, never in completion order, so a
 * JSONL file is byte-identical for a given (seed, config) no matter
 * how many worker threads produced it. Any trial can be replayed
 * serially from its record: `runOne(system, fault, crashSeed)`.
 * TrialTotals sums records under the same field names, for the
 * ablations' arms.
 */

#ifndef RIO_HARNESS_SINK_HH
#define RIO_HARNESS_SINK_HH

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace rio::harness
{

struct CampaignConfig;
struct CampaignResult;

/** What a crashed attempt came to, as its JSONL record reports it:
 *  runOne fills it for every attempt (CrashRunResult), and a trial's
 *  TrialRecord takes it whole from the attempt that crashed. */
struct TrialOutcome
{
    bool crashed = false;
    bool corrupt = false;
    bool checksumDetected = false; ///< Direct corruption (registry).
    bool memtestDetected = false;  ///< Replay comparison failed.
    u32 cause = 0; ///< sim::CrashCause index (valid when crashed).
    SimNs crashAfterNs = 0; ///< Time from first injection to crash.
    u64 corruptFiles = 0;
    u64 protectionSaves = 0;

    /** @{ Warm-reboot recovery accounting of the final pass
     *  (core::RecoveryReport); meaningful for the Rio systems only. */
    bool dumpOk = true;
    u64 metadataQuarantined = 0;
    u64 duplicateClaims = 0;
    u64 boundsViolations = 0;
    u64 shadowChecksumBad = 0;
    u64 dataQuarantined = 0;
    u64 metadataUnrestorable = 0;
    /** @} */
    u64 postCrashOps = 0; ///< Corruption-stage mutations applied.

    /** @{ Faulty-disk + double-crash dimensions (meaningful when the
     *  campaign enables them). */
    bool doubleCrashFired = false; ///< Second crash hit mid-recovery.
    u32 doubleCrashPhase = 0;  ///< core::RecoveryPhase index it hit.
    u32 recoveryPasses = 0;    ///< Recovery attempts (1 = no retry).
    bool recoveryResumed = false; ///< Final pass used a checkpoint.
    u64 checkpointWrites = 0;  ///< Progress records pushed to swap.
    u64 retriedSectors = 0;    ///< Recovery I/O retried past faults.
    u64 remappedSectors = 0;   ///< Bad sectors remapped in recovery.
    u64 abandonedSectors = 0;  ///< Recovery ops that never succeeded.
    u64 diskTransientErrors = 0; ///< Device-level transient failures.
    u64 diskBadSectorErrors = 0; ///< Device-level bad-sector hits.
    u64 diskSectorsRemapped = 0; ///< Device-lifetime remaps (fs+rec).
    bool readOnlyDegraded = false; ///< Fs ended read-only remounted.
    /** @} */

    /** @{ rio-nv dimension: meaningful when the trial's machine had
     *  an NV region. */
    bool nvBacked = false;
    bool nvMirrorPresent = false; ///< Final warm reboot saw a mirror.
    bool nvMirrorCorrupt = false; ///< Some reboot saw a bad header.
    u64 nvEntriesGrafted = 0; ///< Registry slots taken from NV.
    u64 nvShadowsUsed = 0;    ///< Shadow pages staged from NV.
    u64 nvMirrorWrites = 0;   ///< Mirror stores over the whole run.
    u64 nvBitsFlipped = 0;    ///< NV fault model: decayed bits.
    u64 nvLinesTorn = 0;      ///< NV fault model: torn cache lines.
    /** @} */

    /** @{ Intermittent-power dimension: meaningful for power-cycle
     *  trials (CampaignConfig::powerCycleOps > 0). */
    bool powerCycleMode = false;
    u32 powerCycles = 0; ///< Power-loss crashes survived.
    u64 workloadOps = 0; ///< memTest ops finished across cycles.
    SimNs recoveryNs = 0; ///< Sim time spent inside warm reboots.
    /** @} */

    std::string message;

    bool operator==(const TrialOutcome &) const = default;
};

/** Everything recorded about one (system, fault, trial) task. */
struct TrialRecord : TrialOutcome
{
    u32 system = 0; ///< SystemKind index.
    u32 fault = 0;  ///< FaultType index.
    u32 trial = 0;  ///< Trial index within the cell.

    u64 trialSeed = 0; ///< Pure derivation; see trialSeed().
    u64 crashSeed = 0; ///< Seed of the attempt that crashed (0: none).
    u32 attempts = 0;
    u32 discards = 0;

    bool operator==(const TrialRecord &) const = default;
};

/** Wall-clock accounting for one runAll() (host time, not sim). */
struct CampaignStats
{
    u32 jobs = 1;
    u64 trials = 0;
    u64 attempts = 0;
    double wallSeconds = 0;

    double
    trialsPerSecond() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(trials) / wallSeconds
                   : 0.0;
    }
};

/**
 * The JSONL line for one record (no trailing newline). Every field is
 * always present; one that does not apply to the trial is null: cause
 * and crashAfterNs without a crash, doubleCrashPhase without a double
 * crash, and the rio-nv and intermittent-power counters of a trial
 * that ran without that dimension.
 */
std::string trialToJson(const TrialRecord &record);

/**
 * Totals over a set of trial records, keyed by their trialToJson
 * names: "trials" counts every record, and over the crashed ones each
 * count and flag (true = 1) is summed, "crashed" among them. A null
 * field adds nothing; names, indices, seeds and messages are no
 * totals.
 */
struct TrialTotals
{
    explicit TrialTotals(std::span<const TrialRecord> records);

    /** The total named @p name; throws std::out_of_range for a name
     *  that is not a total. */
    u64 at(std::string_view name) const;

    /** Every total in schema order, "trials" first. */
    std::vector<std::pair<std::string, u64>> entries;
};

/**
 * Machine-readable Table 1 (schema 2): per-cell counts, totals, crash
 * causes.
 * @p stats may be null; when present a "host" section with wall-clock
 * throughput is included (host timing is *not* deterministic).
 */
std::string campaignToJson(const CampaignResult &result,
                           const CampaignConfig &config,
                           const CampaignStats *stats);

} // namespace rio::harness

#endif // RIO_HARNESS_SINK_HH
