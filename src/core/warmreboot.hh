/**
 * @file
 * Warm reboot (paper section 2.2), in the paper's two steps:
 *
 *  1. Before the VM and file system initialize, the booting kernel
 *     dumps all of physical memory to the swap partition — unlike a
 *     crash dump, this runs on a *healthy* system and always works —
 *     and restores dirty metadata to its disk address straight from
 *     the registry, so the file system is intact before fsck runs.
 *  2. After the system is fully booted, a user-level process analyzes
 *     the dump and restores file data through ordinary system calls.
 *
 * Step 1 reads physical memory where it lies. Nothing writes memory
 * between the start of the step and the next kernel boot, so the
 * swap dump is written straight from the image and the metadata
 * restore reads the same bytes; the host holds no copy of memory. The
 * rio-nv graft is the one writer, and it writes only the Registry
 * region, into a private copy (core::RecoveryImage, registry.hh).
 * Debug builds assert that the step leaves memory unchanged. A
 * resumed pass reads the first crash's dump back from swap and uses
 * that as its image.
 *
 * The crashed OS left memory in an *arbitrary* state (section 3), so
 * the restore path treats the surviving image as adversarial input:
 * a RestorePolicy decides whether checksum-mismatched metadata is
 * quarantined rather than pushed to disk, whether contested disk
 * blocks (two registry entries claiming the same block) are rejected,
 * and whether shadow copies are verified before use. Every dump and
 * swap access is bounds-checked regardless of policy. What the
 * policy did is accounted in a RecoveryReport so experiment harnesses
 * can measure the hardening (see bench/ablation_recovery.cc).
 *
 * Recovery is also *re-entrant*: a second crash in the middle of
 * recovery must not lose what the first pass already achieved. The
 * restore checkpoints its progress into the last swap sector (after
 * the dump image) — which phase completed and how many restorable
 * entries each phase has processed — and every page the user-level
 * data restore replays is fsync'd before the checkpoint advances
 * past it, so a checkpoint never claims more than the platter holds.
 * A fresh WarmReboot constructed after the second crash finds the
 * checkpoint, re-verifies the dump image against its recorded
 * checksum, and resumes where the dead pass stopped; convergence
 * takes as many passes as there are crashes. Recovery-time disk I/O
 * goes through the bounded-retry discipline (os/ioretry.hh) and its
 * cost is accounted in the RecoveryReport.
 *
 * core::System (core/system.hh) owns the caller sequence; its
 * recover() runs, after the dead OS is dropped and the machine
 * warm-reset:
 *  1. a WarmReboot with the policy (hardened() by default) and the
 *     kernel config's ioRetry as its I/O policy, then
 *     dumpAndRestoreMetadata();
 *  2. a fresh RioSystem and then a fresh Kernel, the rio-nv mirror
 *     lock registered in the new kernel's lock table, and
 *     Kernel::boot(rio, false), which activates Rio (fresh registry,
 *     protection) before journal replay, fsck and mount;
 *  3. restoreData() through the new kernel's VFS.
 */

#ifndef RIO_CORE_WARMREBOOT_HH
#define RIO_CORE_WARMREBOOT_HH

#include "core/nvmirror.hh"
#include "core/registry.hh"
#include "os/kconfig.hh"
#include "os/vfs.hh"
#include "sim/machine.hh"

namespace rio::core
{

/** Where a recovery pass is; reported as the Recovery* events. */
enum class RecoveryPhase : u8
{
    Dump = 0,            ///< Writing the memory image to swap.
    MetadataRestore = 1, ///< Pushing dirty metadata to disk blocks.
    DataRestore = 2,     ///< User-level replay through the VFS.
    Done = 3,            ///< All phases complete, checkpoint retired.
};

const char *recoveryPhaseName(RecoveryPhase phase);

/**
 * How much the restore path trusts the surviving memory image.
 * hardened() is the default; trusting() reproduces the pre-hardening
 * behaviour (restore whatever the registry points at) and exists so
 * the value of each check can be measured.
 */
struct RestorePolicy
{
    /** Never push a checksum-mismatched metadata page to disk; the
     *  on-disk copy (older but consistent) plus fsck is safer. */
    bool quarantineBadChecksums = true;

    /** Reject dirty metadata entries whose diskBlock is claimed by
     *  more than one surviving entry — at most one claimant can be
     *  right, and the registry no longer says which. */
    bool rejectDuplicateClaims = true;

    /** Verify a shadow copy against the entry checksum (the checksum
     *  of the last consistent contents) before restoring from it. */
    bool verifyShadowChecksums = true;

    /** Skip the user-level restore of checksum-mismatched data pages
     *  instead of writing garbage into the file. Off even in
     *  hardened(): a bad data page cannot crash the rebooted kernel
     *  the way bad metadata can, the on-disk copy of *data* is no
     *  more trustworthy than the damaged one, and the paper's §3.2
     *  apparatus restores anyway and lets user-level memTest judge.
     *  Opt in when the downstream consumer prefers a hole to
     *  plausible garbage. */
    bool quarantineBadData = false;

    /** Checkpoint recovery progress to swap and resume from the
     *  checkpoint after a crash during recovery. Costs one swap
     *  sector plus a sector write per restored entry, and an fsync
     *  per restored file; buys double-crash tolerance. */
    bool reentrantRecovery = true;

    static RestorePolicy
    hardened()
    {
        return {};
    }

    static RestorePolicy
    trusting()
    {
        RestorePolicy policy;
        policy.quarantineBadChecksums = false;
        policy.rejectDuplicateClaims = false;
        policy.verifyShadowChecksums = false;
        policy.quarantineBadData = false;
        policy.reentrantRecovery = false;
        return policy;
    }
};

/** What the restore policy did with suspect input (per reboot). */
struct RecoveryReport
{
    bool dumpOk = true;         ///< Dump written completely to swap.
    u64 dumpShortfallBytes = 0; ///< Dump bytes the swap cannot hold.
    u64 metadataQuarantined = 0;///< Bad-checksum pages not restored.
    u64 duplicateClaims = 0;    ///< Entries rejected: contested block.
    u64 boundsViolations = 0;   ///< Source ranges outside the dump.
    u64 shadowChecksumBad = 0;  ///< Shadow copies failing verification.
    u64 dataQuarantined = 0;    ///< Bad-checksum data pages skipped.
    bool dataRestoreSkipped = false; ///< Step 2 impossible: no dump.

    /** @{ Re-entrancy: what a resumed pass inherited. */
    bool resumed = false;       ///< Picked up a prior pass's progress.
    u8 resumePhase = 0;         ///< RecoveryPhase the resume entered.
    bool dumpChecksumBad = false; ///< Swap dump failed re-verification.
    u64 checkpointWrites = 0;   ///< Progress records pushed to swap.
    u64 metadataSkippedResume = 0; ///< Entries a prior pass finished.
    u64 dataSkippedResume = 0;     ///< Data pages a prior pass synced.
    /** @} */

    /** @{ Faulty-disk accounting for recovery-time I/O. */
    u64 retriedSectors = 0;   ///< Sectors re-driven past transients.
    u64 remappedSectors = 0;  ///< Bad sectors remapped onto spares.
    u64 abandonedSectors = 0; ///< Sectors whose op never succeeded.
    u64 dataUnreadable = 0;   ///< Dump pages lost to swap bad sectors.
    /** @} */
};

struct WarmRebootReport
{
    bool memoryPreserved = false;
    u64 dumpBytes = 0;
    u64 entriesSeen = 0;
    u64 corruptEntries = 0;
    u64 metadataRestored = 0;
    u64 metadataFromShadow = 0; ///< Crash mid-update: shadow used.
    /** Crash in endWrite's commit window (shadow already cleared or
     *  superseded): the page itself verified against the entry
     *  checksum and was restored directly. */
    u64 metadataFromPhysFallback = 0;
    u64 metadataChecksumBad = 0;
    u64 metadataUnrestorable = 0; ///< No usable source for the block.
    u64 dataPagesRestored = 0;
    u64 dataBytesRestored = 0;
    u64 dataChanging = 0; ///< Page was mid-write at the crash.
    u64 dataChecksumBad = 0;
    u64 staleInodes = 0; ///< Data pages whose inode did not survive.

    /** @{ rio-nv: the battery-backed registry mirror's contribution
     *  (all zero/false when the machine has no NV region). */
    bool nvMirrorPresent = false;  ///< A mirror header was found.
    bool nvMirrorCorrupt = false;  ///< Header failed validation.
    u64 nvEntriesGrafted = 0;      ///< Entry slots taken from NV.
    u64 nvShadowsUsed = 0;         ///< Restores fed by an NV shadow.
    /** @} */

    RecoveryReport recovery;
};

class WarmReboot
{
  public:
    explicit WarmReboot(sim::Machine &machine,
                        RestorePolicy policy = RestorePolicy::hardened());

    /** Retry discipline for recovery-time disk I/O. */
    void setIoPolicy(const os::IoRetryPolicy &policy) { io_ = policy; }

    /**
     * Step 1: dump memory to swap and push dirty metadata back to
     * its disk blocks. Call after Machine::reset(ResetKind::Warm)
     * and before the kernel boots. If the dump does not fit the swap
     * partition the failure is recorded (recovery.dumpOk) and no
     * partial dump is written; metadata restore still runs, straight
     * from the surviving image. When a valid checkpoint from an
     * interrupted earlier pass survives on swap, the dump image is
     * reloaded from swap instead of memory and already-processed
     * entries are skipped.
     */
    WarmRebootReport dumpAndRestoreMetadata();

    /**
     * Step 2: the user-level restore. Replays every dirty data page
     * from the dump into the freshly mounted file system via normal
     * write calls, fsyncing each rebuilt file before the checkpoint
     * advances past it. A no-op (recorded as dataRestoreSkipped)
     * when the dump never made it to the swap partition.
     */
    void restoreData(os::Vfs &vfs, WarmRebootReport &report);

    /** The registry the metadata restore scanned out of the image
     *  (rio-nv graft applied); restoreData replays its data pages. */
    const RegistryImage &registryImage() const { return image_; }

    const RestorePolicy &policy() const { return policy_; }

    /** @{ Checkpoint record layout (last swap sector; for tests). */
    static constexpr u32 kCkptMagic = 0x52C4B007;
    static constexpr u32 kCkptVersion = 1;
    static constexpr u32 kFlagDumpComplete = 1u << 0;
    static constexpr u32 kFlagMetadataComplete = 1u << 1;
    static constexpr u32 kFlagAllDone = 1u << 2;
    /** @} */

  private:
    /** Host-side view of the progress record on swap. */
    struct Checkpoint
    {
        u32 flags = 0;
        u64 dumpSectors = 0;
        u64 dumpBytes = 0;
        u32 dumpChecksum = 0;
        u64 metadataProcessed = 0;
        u64 dataProcessed = 0;
    };

    SectorNo ckptSector() const;
    bool readCheckpoint(Checkpoint &out, RecoveryReport &recovery);
    void writeCheckpoint(RecoveryReport &recovery);
    /** Emit the Recovery* event of @p phase to the machine's hook. */
    void noteStep(RecoveryPhase phase, u64 step, u64 total);
    Addr stageNvShadow(const NvMirrorGraft &graft, RecoveryImage &dump,
                       const RegistryEntry &entry, u64 n);

    sim::Machine &machine_;
    RestorePolicy policy_;
    os::IoRetryPolicy io_;
    Checkpoint ckpt_;
    /** True once this pass owns a live checkpoint on swap. */
    bool ckptActive_ = false;
    RegistryImage image_;
};

} // namespace rio::core

#endif // RIO_CORE_WARMREBOOT_HH
