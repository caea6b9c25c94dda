#include "os/locks.hh"

#include <algorithm>

namespace rio::os
{

LockTable::LockTable(sim::Machine &machine, KProcTable &procs)
    : machine_(machine), procs_(procs)
{}

LockId
LockTable::add(std::string name, LockRank rank, Addr guardBase,
               u64 guardSize)
{
    locks_.push_back(
        {std::move(name), rank.value, false, guardBase, guardSize});
    return static_cast<LockId>(locks_.size() - 1);
}

bool
LockTable::has(const std::string &name) const
{
    return std::ranges::any_of(
        locks_, [&](const Lock &lock) { return lock.name == name; });
}

void
LockTable::setGuard(LockId lock, Addr guardBase, u64 guardSize)
{
    locks_.at(lock).guardBase = guardBase;
    locks_.at(lock).guardSize = guardSize;
}

bool
LockTable::faultFires()
{
    if (!faultArmed_)
        return false;
    if (faultCountdown_-- != 0)
        return false;
    faultCountdown_ = faultRng_.between(100, 400);
    return true;
}

void
LockTable::armSyncFault(support::Rng &rng)
{
    faultArmed_ = true;
    faultRng_ = rng.fork();
    faultCountdown_ = faultRng_.between(2, 64);
}

/**
 * Record an acquire on the validator's held stack and check it
 * against the lattice. Pure bookkeeping — no RNG, no clock — so the
 * validator cannot perturb seed-reproducible results. The check runs
 * on the caller's *intent*, before the fault hook: a missed acquire
 * still reflects the nesting the code asked for.
 */
void
LockTable::lockdepAcquire(LockId lockId)
{
    ++lockdepEvents_;
    const Lock &lock = locks_.at(lockId);
    if (lock.rank != 0) {
        for (const LockId heldId : heldStack_) {
            const Lock &held = locks_.at(heldId);
            if (held.rank != 0 && lock.rank <= held.rank) {
                ++rankViolations_;
                if (violationLog_.size() < 16) {
                    violationLog_.push_back(
                        "acquire " + lock.name + " (rank " +
                        std::to_string(lock.rank) +
                        ") while holding " + held.name + " (rank " +
                        std::to_string(held.rank) + ")");
                }
            }
        }
    }
    heldStack_.push_back(lockId);
}

/** Pop the most recent occurrence of @p lockId off the held stack
 * (releases are allowed out of order; only ranks are validated). */
void
LockTable::lockdepRelease(LockId lockId)
{
    for (auto it = heldStack_.rbegin(); it != heldStack_.rend();
         ++it) {
        if (*it == lockId) {
            heldStack_.erase(std::next(it).base());
            return;
        }
    }
}

void
LockTable::acquire(LockId lockId)
{
    ++acquires_;
    procs_.enter(ProcId::LockAcquire);
    if (lockdepOn_)
        lockdepAcquire(lockId);
    Lock &lock = locks_.at(lockId);
    if (faultFires()) {
        // Missed acquire: the critical section runs unlocked. Model a
        // race by occasionally clobbering guarded bytes.
        ++races_;
        if (lock.guardSize > 0 && faultRng_.chance(0.30)) {
            const u64 n = faultRng_.between(1, 8);
            auto &bus = machine_.bus();
            for (u64 i = 0; i < n; ++i) {
                bus.store8(lock.guardBase +
                               faultRng_.below(lock.guardSize),
                           static_cast<u8>(faultRng_.next()));
            }
        }
        return; // Caller believes it holds the lock.
    }
    if (lock.held) {
        // Single CPU, non-recursive locks: this never resolves.
        machine_.crash(sim::CrashCause::Deadlock,
                       "deadlock on kernel lock " + lock.name);
    }
    lock.held = true;
}

void
LockTable::releaseQuiet(LockId lockId)
{
    // Quiet releases run while a crash exception unwinds; keep the
    // held stack honest but do not count a validator event, so the
    // unwind path is invisible to the event tally the guard-unwind
    // regression test pins.
    if (lockdepOn_)
        lockdepRelease(lockId);
    locks_.at(lockId).held = false;
}

void
LockTable::release(LockId lockId)
{
    procs_.enter(ProcId::LockRelease);
    if (lockdepOn_) {
        ++lockdepEvents_;
        lockdepRelease(lockId);
    }
    Lock &lock = locks_.at(lockId);
    if (faultFires()) {
        return; // Missed release: lock stays held forever.
    }
    // Releasing a lock we do not hold can happen after a missed
    // acquire; real kernels assert on it.
    lock.held = false;
}

} // namespace rio::os
