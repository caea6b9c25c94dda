/**
 * @file
 * The machine-wide crash-point event hook.
 *
 * Every instant where a crash can usefully be placed is reported as
 * one Event {kind, a, b} to the single subscriber attached through
 * Machine::subscribe: a checked store landing, a platter write
 * becoming durable, an NV store, a step of Rio's shadow-page protocol,
 * a journal commit or checkpoint step, a journal replay phase and a
 * warm-reboot recovery step. The crash-point model checker
 * (harness/crashmc), the crash campaign's double-crash injector and
 * the tests are subscribers; one that wants to model "crash here"
 * calls Machine::crash (or throws) from inside the callback.
 *
 * Each emitter holds an EventHook: the subscriber plus a kind mask
 * that is 0 while nothing is attached, so an unattached emit costs
 * one branch. Subscribers must not advance simulated time: attaching
 * one then leaves every run byte-identical.
 */

#ifndef RIO_SIM_EVENT_HH
#define RIO_SIM_EVENT_HH

#include <functional>

#include "support/types.hh"

namespace rio::sim
{

/** What happened; `a` and `b` as noted (b is 0 where unnamed). */
enum class EventKind : u8
{
    /** MemBus: a = pa, b = len landed via the checked path. */
    CheckedStore,
    /** Data disk: a = start sector, b = count now on the platter
     *  (sync writes and queued writes completing under poll; the
     *  torn write of a crash does not fire). */
    DiskWrite,
    /** NvRegion: a = offset, b = len now in the region. */
    NvWrite,
    /** @{ Rio shadow-page protocol steps; a = address. */
    RioOpenPage,   ///< Protection dropped on page a.
    RioClosePage,  ///< Protection restored on page a.
    RioShadowCopy, ///< beginWrite copied metadata to shadow page a.
    RioFieldWrite, ///< Registry field at pa a stored (post-store).
    RioCommit,     ///< endWrite about to flip page a back to Active.
    /** @} */
    /** @{ Journal protocol steps. */
    JournalTxCommit,          ///< Commit record of seq a about to queue.
    JournalCheckpointWrite,   ///< Home write of block a about to issue.
    JournalCheckpointAdvance, ///< Log head about to advance to seq a.
    /** @} */
    /** @{ Journal replay phases (crash-mid-replay re-entrancy). */
    ReplayScanDone,   ///< a transactions staged, nothing applied yet.
    ReplayApplyBlock, ///< Home write of block a about to issue.
    ReplayApplyDone,  ///< a images applied and drained.
    ReplayJsbAdvance, ///< Journal superblock about to advance to seq a.
    /** @} */
    /** @{ Warm-reboot recovery: a = step, b = total, fired at every
     *  step boundary after the checkpoint covering it is written;
     *  a == b marks the phase boundary. Order matches
     *  core::RecoveryPhase. */
    RecoveryDump,
    RecoveryMetadataRestore,
    RecoveryDataRestore,
    RecoveryDone,
    /** @} */
};

constexpr u32 kNumEventKinds =
    static_cast<u32>(EventKind::RecoveryDone) + 1;

constexpr u32
eventBit(EventKind kind)
{
    return 1u << static_cast<u32>(kind);
}

constexpr u32 kAllEvents = (1u << kNumEventKinds) - 1;

/** The four Recovery* kinds. */
constexpr u32 kRecoveryEvents =
    eventBit(EventKind::RecoveryDump) |
    eventBit(EventKind::RecoveryMetadataRestore) |
    eventBit(EventKind::RecoveryDataRestore) |
    eventBit(EventKind::RecoveryDone);

struct Event
{
    EventKind kind;
    u64 a;
    u64 b;
};

using EventSubscriber = std::function<void(const Event &)>;

/** An emitter's view of the subscriber; inert when default-built. */
class EventHook
{
  public:
    void
    emit(EventKind kind, u64 a, u64 b = 0) const
    {
        if (mask_ & eventBit(kind)) [[unlikely]]
            (*subscriber_)(Event{kind, a, b});
    }

  private:
    friend class Machine;

    u32 mask_ = 0;
    const EventSubscriber *subscriber_ = nullptr;
};

} // namespace rio::sim

#endif // RIO_SIM_EVENT_HH
