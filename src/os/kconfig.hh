/**
 * @file
 * Kernel configuration: which file system flavour is mounted, when
 * data and metadata are made permanent, and which Rio features are
 * active. The eight rows of the paper's Table 2 are presets over
 * these knobs (see systemPreset()). Every journaling preset — the
 * AdvFS row and the three ext3 rows — runs the same
 * compound-transaction engine; JournalConfig sets its data mode and
 * transaction budget.
 */

#ifndef RIO_OS_KCONFIG_HH
#define RIO_OS_KCONFIG_HH

#include <string>

#include "sim/clock.hh"
#include "support/types.hh"

namespace rio::os
{

/** When metadata buffer-cache blocks reach the disk. */
enum class MetadataPolicy : u8
{
    Sync,    ///< Written synchronously (default UFS, enforces order).
    Delayed, ///< Held until the update daemon runs (no-order UFS).
    Logged,  ///< Appended to a sequential journal (AdvFS-style).
    Never,   ///< Rio: only written when the cache overflows.
};

/** When UBC file-data pages reach the disk. */
enum class DataPolicy : u8
{
    SyncOnWrite, ///< Every write syscall is synchronous ("sync" mount).
    Async64K,    ///< Async after 64 KB, non-seq writes, or the daemon.
    Delayed,     ///< Held until the update daemon runs.
    Never,       ///< Rio: only written when the cache overflows.
};

/** How the file cache is protected from wild kernel stores. */
enum class ProtectionMode : u8
{
    Off,       ///< No protection (Rio "without protection").
    VmTlb,     ///< Page protection + ABOX map-all-through-TLB.
    CodePatch, ///< Inserted checks before kernel stores (slow CPUs).
};

/** Which file system implementation is mounted. */
enum class FsKind : u8
{
    Ufs,     ///< UFS on the simulated disk.
    Mfs,     ///< Memory file system (zero-latency RAM disk).
    Journal, ///< UFS with a journal (JournalMode picks the data mode).
};

/**
 * Which data mode a FsKind::Journal mount runs. There is one
 * compound-transaction engine (os/journal.hh); the modes differ only
 * in how file *data* relates to the log (metadata is always
 * journaled):
 */
enum class JournalMode : u8
{
    Writeback, ///< ext3 data=writeback: data goes its own way.
    Ordered,   ///< ext3 data=ordered: data flushed before commit.
    Journal,   ///< ext3 data=journal: data blocks through the log.
};

/** Knobs for the compound-transaction journal. */
struct JournalConfig
{
    JournalMode mode = JournalMode::Writeback;

    /** Group-commit timer: an open compound transaction older than
     *  this commits at the next syscall tick (ext3 default 5 s). */
    SimNs commitIntervalNs = 5ull * sim::kNsPerSec;

    /** Blocks one compound transaction may hold before it must
     *  commit (clamped at attach to fit the log area). */
    u32 maxTxBlocks = 24;

    /**
     * Checksum the commit record over the descriptor + data payload
     * (JBD2-style). Replay rejects a transaction whose payload does
     * not match its commit checksum — closing the torn/reordered
     * commit window. Off reproduces the unguarded design the
     * weakened crashmc arm measures.
     */
    bool checksumCommit = true;

    /**
     * Checkpoint after every N commits (0 = only under log-space
     * pressure and at sync/unmount). The model checker sets a small
     * N so bounded workloads exercise checkpoint boundaries.
     */
    u32 checkpointEveryCommits = 0;
};

/**
 * Bounded retry/remap policy for the disk I/O path (os/ioretry.hh).
 * Off reproduces the legacy assume-success path: statuses from the
 * device are ignored and a failed fill leaves stale staging bytes —
 * exactly the undefined behaviour the ablation's baseline arm
 * measures.
 */
struct IoRetryPolicy
{
    bool enabled = true;
    /** Total attempts per op (first try plus retries). */
    u32 maxAttempts = 4;
    /** Backoff before the first retry; doubles on each further one. */
    SimNs backoffNs = 2'000'000;
};

struct KernelConfig
{
    FsKind fs = FsKind::Ufs;
    MetadataPolicy metadata = MetadataPolicy::Sync;
    DataPolicy data = DataPolicy::Async64K;

    /** Call fsync on every close (UFS write-through-on-close). */
    bool fsyncOnClose = false;

    /**
     * Rio: maintain the registry, treat memory as permanent, make
     * sync/fsync return immediately, skip the panic-time flush.
     */
    bool rio = false;

    ProtectionMode protection = ProtectionMode::Off;

    /**
     * Administrative override (footnote 1 of the paper): force
     * reliability disk writes back on even when rio is set, for
     * machine maintenance or extended power outages.
     */
    bool adminForceSync = false;

    /**
     * The paper's stated future work (section 2.3): "less extreme
     * approaches such as writing to disk during idle periods may
     * improve system responsiveness". When set with rio, the update
     * daemon trickles dirty blocks out asynchronously. This has no
     * reliability role — memory is already permanent — but it
     * shrinks the warm reboot's restore work and the eviction cost
     * when the cache fills.
     */
    bool rioIdleFlush = false;

    /** Update daemon period (classic 30 seconds). */
    SimNs updateIntervalNs = 30ull * sim::kNsPerSec;

    /** Async data flush threshold for DataPolicy::Async64K. */
    u64 asyncFlushBytes = 64 * 1024;

    /** Maximum open files per process. */
    u32 maxOpenFiles = 64;

    /** Disk I/O retry/remap discipline (see IoRetryPolicy). */
    IoRetryPolicy ioRetry;

    /** Journaling engine knobs (FsKind::Journal only). */
    JournalConfig journal;

    /**
     * Lockdep-style rank validator on the kernel lock table (see
     * os/locks.hh). Pure bookkeeping — results are byte-identical
     * with it on or off — so it defaults on; the knob exists to
     * prove exactly that in the campaign determinism tests.
     */
    bool lockdep = true;

    /**
     * rio-nv: mirror the Rio registry and shadow pages into the
     * machine's NV region (battery-backed DRAM, paper section 7).
     * core::System maps this onto RioOptions::nvBacked; requires
     * MachineConfig::nvBytes to be fitted.
     */
    bool rioNvMirror = false;
};

/** The eight system configurations evaluated in Table 2, plus the
 *  NV-backed Rio tier (paper section 7's battery-backed DRAM) and
 *  the three ext3 journal-mode rows. */
enum class SystemPreset : u8
{
    MemoryFs,            ///< Memory File System: data permanent never.
    UfsDelayAll,         ///< Delayed data + metadata (no-order UFS).
    AdvFsJournal,        ///< Log metadata, 16-block group commit.
    UfsDefault,          ///< Async data, synchronous metadata.
    UfsWriteThroughClose,///< fsync on every close.
    UfsWriteThroughWrite,///< sync mount + fsync on close.
    RioNoProtection,     ///< Rio, warm reboot only.
    RioProtected,        ///< Rio with VM/TLB protection.
    RioNvProtected,      ///< Rio, protected, NV-mirrored registry.
    JournalWriteback,    ///< ext3 journal, data=writeback.
    JournalOrdered,      ///< ext3 journal, data=ordered.
    JournalData,         ///< ext3 journal, data=journal.
};

/** Build a KernelConfig for one Table 2 row. */
KernelConfig systemPreset(SystemPreset preset);

/** Row label used in reports (matches the paper's wording). */
const char *systemPresetName(SystemPreset preset);

/** "Data Permanent" column text for the preset. */
const char *systemPresetPermanence(SystemPreset preset);

} // namespace rio::os

#endif // RIO_OS_KCONFIG_HH
