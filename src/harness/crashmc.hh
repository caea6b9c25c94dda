/**
 * @file
 * Exhaustive crash-point model checker (ROADMAP item 4).
 *
 * The crash campaign samples crash points randomly, so a protocol
 * hole that requires crashing at one specific store or flush
 * boundary can survive thousands of trials. crashmc closes that gap
 * at small scale: it runs a bounded deterministic workload once,
 * subscribed to the machine's event hook (sim/event.hh), recording
 * every crash-relevant event —
 *
 *   - BusStore:    a checked store landing in the registry or a
 *                  file-cache pool (CheckedStore),
 *   - ProtoOpen / ProtoClose / ProtoShadowCopy / ProtoFieldWrite /
 *     ProtoCommit: the shadow-page protocol steps (the Rio* events;
 *                  RioCommit fires pre-flip),
 *   - DiskFlush:   a write reaching the data disk's platter
 *                  (DiskWrite) —
 *
 * then replays the workload once per event, crashing exactly at
 * event k, running the full recovery pipeline (hardened warm reboot,
 * fsck, user-level data restore), and judging the result with the
 * shared host-side oracle (harness/oracle.hh) plus memTest's replay
 * comparison. Because record and replay use identical seeds and the
 * subscriber never advances simulated time, event k lands on the same
 * instruction in every run — "every crash point in workload W
 * recovers" becomes a checked statement, not a sampled estimate.
 *
 * Five bounded workloads are built in: ShadowFlip (a Rio kernel
 * driven by memTest — exercises the registry shadow-flip protocol
 * end to end) and four journal workloads with write-through memTest:
 * Journal (the AdvFS preset) and the three ext3 data modes
 * JournalWriteback / JournalOrdered / JournalData. All four run the
 * same compound-transaction engine and enumerate every disk flush
 * plus every transaction-commit and checkpoint boundary
 * (JournalCommit / JournalCheckpoint classes, from the Journal*
 * events fired just *before* the staged log writes go out — the
 * most exposed instant of each protocol step). Points are
 * independent, so runAll fans them out over a WorkerPool and merges
 * by event index; any failing point serializes to a minimal repro
 * record (workload, event index, seed) that
 * tests/test_crashmc_corpus.cc replays as an ordinary ctest case.
 *
 * bench/crashmc_main.cc drives it from the RIO_MC_* knobs (see
 * knobTable() in harness/hconfig.cc).
 */

#ifndef RIO_HARNESS_CRASHMC_HH
#define RIO_HARNESS_CRASHMC_HH

#include <string>
#include <vector>

#include "harness/hconfig.hh"
#include "harness/sink.hh"

namespace rio::harness
{

/** The bounded workloads the checker can enumerate. */
enum class McWorkloadKind : u8
{
    ShadowFlip, ///< Rio kernel + memTest: shadow-flip protocol.
    Journal,    ///< AdvFS preset (writeback, 16-block commits).
    JournalWriteback, ///< ext3 journal, data=writeback.
    JournalOrdered,   ///< ext3 journal, data=ordered.
    JournalData,      ///< ext3 journal, data=journal.
};

constexpr u32 kMcNumWorkloads = 5;

const char *mcWorkloadName(McWorkloadKind kind);

/** Crash-relevant event classes; one bit each in a workload mask. */
enum class McEventClass : u8
{
    BusStore = 0,    ///< Checked store into registry/file-cache.
    ProtoOpen,       ///< RioSystem::openPage.
    ProtoClose,      ///< RioSystem::closePage.
    ProtoShadowCopy, ///< beginWrite shadow copy complete.
    ProtoFieldWrite, ///< One registry field stored.
    ProtoCommit,     ///< endWrite about to flip state (pre-flip).
    DiskFlush,       ///< A write reached the platter.
    NvMirrorWrite,   ///< Bytes landed in the NV registry mirror.
    JournalCommit,   ///< Journal tx about to stage its log writes.
    JournalCheckpoint, ///< Journal checkpoint write / head advance.
};

constexpr u32 kMcNumEventClasses = 10;

const char *mcEventClassName(McEventClass cls);

constexpr u32
mcClassBit(McEventClass cls)
{
    return 1u << static_cast<u32>(cls);
}

constexpr u32 kMcAllClasses = (1u << kMcNumEventClasses) - 1;

/** One recorded event: where in the trace a crash can be modeled. */
struct McEvent
{
    McEventClass cls = McEventClass::BusStore;
    u64 addr = 0; ///< Physical address, or start sector (DiskFlush).
};

/** Plain values; crashmc_main reads its knobs via crashMcConfigFromEnv. */
struct CrashMcConfig
{
    u64 seed = 1;
    /** memTest operations per bounded workload. */
    u32 ops = 12;
    /** Worker threads; 0 = all hardware threads. */
    u32 jobs = 0;
    /** hardened() restore when true, trusting() when false. */
    bool hardened = true;
    /** RioOptions::shadowMetadata for the ShadowFlip workload;
     *  disabling it is the second deliberately-weakened arm. */
    bool shadowMetadata = true;
    /** rio-nv: fit an NV region and mirror the registry into it for
     *  the ShadowFlip workload; every mirror store becomes an
     *  enumerable crash point. */
    bool nvBacked = false;
    /** Journal workloads: commit-record checksums on. Turning this off
     *  is the journal's deliberately-weakened arm — combined with
     *  tornCommit it must demonstrably fail. */
    bool journalChecksum = true;
    /** Journal workloads: between the modeled crash and the reboot,
     *  scramble one committed transaction's payload while its commit
     *  record survives — the torn-commit window a strict-FIFO sim
     *  disk cannot produce on its own. */
    bool tornCommit = false;
    /** Live progress line on stderr. */
    bool progress = false;
};

/** Outcome of replaying one crash point. */
struct McPointRecord
{
    u32 workload = 0;   ///< McWorkloadKind index.
    u64 eventIndex = 0; ///< k: crash fires at recorded event k.
    u32 eventClass = 0; ///< McEventClass index (from the trace).
    u64 eventAddr = 0;
    u64 seed = 0;      ///< Workload seed (CrashMcConfig::seed).
    u64 pointSeed = 0; ///< mix64 identity for repro labeling.

    bool crashed = false;   ///< The modeled crash fired in replay.
    bool recovered = false; ///< Recovery pipeline fully passed.
    std::string failure;    ///< Empty when recovered.

    /** @{ Recovery accounting (ShadowFlip; zero for Journal). */
    bool oracleOk = true;
    u64 metadataRestored = 0;
    u64 metadataFromShadow = 0;
    u64 metadataFromPhysFallback = 0;
    u64 metadataQuarantined = 0;
    u64 metadataUnrestorable = 0;
    /** @} */
    u64 corruptFiles = 0;
    u64 opsCompleted = 0; ///< memTest ops done before the crash.
};

/** Aggregate over one workload's exhaustive enumeration. */
struct McWorkloadResult
{
    McWorkloadKind kind = McWorkloadKind::ShadowFlip;
    u64 totalEvents = 0;
    u64 pointsRun = 0;
    u64 recoveredPoints = 0;
    u64 unrecoveredPoints = 0;
    u64 driftPoints = 0; ///< Crash never fired: trace drift.
    u64 perClass[kMcNumEventClasses] = {};
    /** One record per crash point, in event order. */
    std::vector<McPointRecord> points;
};

struct McResult
{
    std::vector<McWorkloadResult> workloads;

    u64 totalUnrecovered() const;
};

class CrashMc
{
  public:
    explicit CrashMc(const CrashMcConfig &config);

    /** Record pass: run the bounded workload once (no crash) and
     *  return the event trace. Deterministic in (config, kind). */
    std::vector<McEvent> record(McWorkloadKind kind);

    /**
     * Replay the workload, crash at recorded event @p k, recover,
     * and judge. @p trace is the record() output (used to label the
     * point; the replay re-counts events itself). Pure in (config,
     * kind, k) — safe from any worker thread.
     */
    McPointRecord runPoint(McWorkloadKind kind, u64 k,
                           const std::vector<McEvent> &trace);

    /** Exhaustively enumerate every crash point of one workload,
     *  fanned out over @p jobs workers, merged in event order. */
    McWorkloadResult runWorkload(McWorkloadKind kind);

    /** Enumerate every configured workload. */
    McResult runAll(const std::vector<McWorkloadKind> &kinds);

    const CrashMcConfig &config() const { return config_; }

  private:
    CrashMcConfig config_;
};

/** Event-class mask a workload enumerates (journal workloads: disk
 *  flushes plus commit/checkpoint steps, since memory contents do
 *  not survive a non-Rio reboot). */
u32 mcWorkloadClassMask(McWorkloadKind kind);

/** @{ JSONL rendering (harness/sink idiom): one object per point,
 *  and a machine-readable summary mirroring the text report. */
std::string mcPointToJson(const McPointRecord &record);
std::string mcSummaryToJson(const McResult &result,
                            const CrashMcConfig &config);
/** @} */

/** Human-readable per-workload summary table. */
std::string mcRenderSummary(const McResult &result,
                            const CrashMcConfig &config);

} // namespace rio::harness

#endif // RIO_HARNESS_CRASHMC_HH
