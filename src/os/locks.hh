/**
 * @file
 * Kernel lock table. The simulation is single-threaded, so locks are
 * normally uncontended bookkeeping — their purpose is to give the
 * paper's *synchronization faults* something causal to break:
 *
 *  - a missed release leaves the lock held, and the next acquire
 *    deadlocks (the watchdog reboots the machine);
 *  - a missed acquire models a race: with some probability the
 *    unprotected critical section interleaves with "another thread"
 *    and scribbles a few bytes of the data the lock guards.
 *
 * Locks also carry a *rank* in the kernel's lock lattice (declared
 * beside each add site with a `riolint:rank` annotation riolint
 * cross-checks). A lockdep-style validator records every acquire
 * against the stack of locks already held: acquiring a ranked lock
 * at a rank <= the deepest ranked lock held is a recorded ordering
 * violation — pure bookkeeping, no RNG and no clock, so enabling it
 * cannot perturb seed-reproducible results. Tier-1 tests assert the
 * violation count stays zero.
 */

#ifndef RIO_OS_LOCKS_HH
#define RIO_OS_LOCKS_HH

#include <exception>
#include <string>
#include <vector>

#include "os/kproc.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace rio::os
{

using LockId = u32;

/**
 * Position in the lock lattice. Strongly typed so rank and guard
 * arguments cannot be swapped silently; 0 means unranked (exempt
 * from ordering checks). Ranks must strictly increase inward:
 * filesystem (10) -> ubc (20) -> bufcache (30).
 */
struct LockRank
{
    u32 value = 0;
};

class LockTable
{
  public:
    LockTable(sim::Machine &machine, KProcTable &procs);

    /**
     * Register a lock.
     * @param name Diagnostic name.
     * @param rank Lattice rank (0 = unranked). Keep the literal in
     *     sync with the riolint:rank annotation at the call site.
     * @param guardBase Base of the data this lock guards (0 = none).
     * @param guardSize Size of the guarded range.
     */
    LockId add(std::string name, LockRank rank = {},
               Addr guardBase = 0, u64 guardSize = 0);

    /** True when a lock named @p name is registered. */
    bool has(const std::string &name) const;

    /** Late-bind the guarded range (arenas allocated after boot). */
    void setGuard(LockId lock, Addr guardBase, u64 guardSize);

    void acquire(LockId lock);
    void release(LockId lock);

    /**
     * Release without instrumentation or fault hooks. Used while a
     * crash exception unwinds: the machine is going down, and a
     * fault hook firing in a destructor would terminate the *host*.
     */
    void releaseQuiet(LockId lock);

    /** RAII helper. */
    class Guard
    {
      public:
        Guard(LockTable &table, LockId lock) : table_(table), lock_(lock)
        {
            table_.acquire(lock_);
        }

        /**
         * noexcept(false): release() runs fault-injection hooks and
         * may crash the simulated machine; the CrashException must
         * propagate to the harness instead of terminating the host.
         */
        ~Guard() noexcept(false)
        {
            if (std::uncaught_exceptions() > 0)
                table_.releaseQuiet(lock_);
            else
                table_.release(lock_);
        }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

      private:
        LockTable &table_;
        LockId lock_;
    };

    /** Fault hook: start missing acquires/releases occasionally. */
    void armSyncFault(support::Rng &rng);

    u64 acquires() const { return acquires_; }
    u64 racesInjected() const { return races_; }

    /** Enable/disable the lockdep validator (on by default). */
    void setLockdep(bool on) { lockdepOn_ = on; }

    /** Rank-ordering violations the validator recorded. */
    u64 rankViolations() const { return rankViolations_; }

    /** Acquire/release events the validator processed. */
    u64 lockdepEvents() const { return lockdepEvents_; }

    /** Locks currently on the validator's held stack. */
    std::size_t heldDepth() const { return heldStack_.size(); }

    /** Human-readable log of the first few violations. */
    const std::vector<std::string> &rankViolationLog() const
    {
        return violationLog_;
    }

  private:
    struct Lock
    {
        std::string name;
        u32 rank = 0;
        bool held = false;
        Addr guardBase = 0;
        u64 guardSize = 0;
    };

    sim::Machine &machine_;
    KProcTable &procs_;
    std::vector<Lock> locks_;
    u64 acquires_ = 0;
    u64 races_ = 0;

    bool lockdepOn_ = true;
    std::vector<LockId> heldStack_;
    u64 rankViolations_ = 0;
    u64 lockdepEvents_ = 0;
    std::vector<std::string> violationLog_;

    bool faultArmed_ = false;
    u64 faultCountdown_ = 0;
    support::Rng faultRng_{0};

    bool faultFires();
    void lockdepAcquire(LockId lockId);
    void lockdepRelease(LockId lockId);
};

} // namespace rio::os

#endif // RIO_OS_LOCKS_HH
