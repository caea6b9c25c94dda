/**
 * @file
 * Bounded retry-with-backoff for the disk I/O path.
 *
 * The simulated disk fails ops transiently and grows latent bad
 * sectors (sim/disk.hh); this helper is the OS-side discipline that
 * turns those into recovered ops wherever possible:
 *
 *  - TransientError: back off in *simulated* time (the retry costs
 *    the workload real latency), doubling per attempt, up to the
 *    policy's attempt budget.
 *  - BadSector: remap every bad sector in the range onto a spare and
 *    retry. A remapped sector reads back as zeros — data loss the
 *    caller's consistency machinery (checksums, fsck) must absorb —
 *    but the device stops erroring. When the spare pool is dry the op
 *    is abandoned and the caller must degrade honestly.
 *
 * With the policy disabled every helper performs exactly one attempt
 * and hands back the raw status, which legacy callers ignore: that is
 * the paper-era assume-success path, kept as the ablation baseline.
 */

#ifndef RIO_OS_IORETRY_HH
#define RIO_OS_IORETRY_HH

#include <algorithm>
#include <span>

#include "os/kconfig.hh"
#include "sim/clock.hh"
#include "sim/disk.hh"

namespace rio::os
{

/** What a retried op cost and how it ended. */
struct IoOutcome
{
    sim::DiskStatus status = sim::DiskStatus::Ok;
    u32 retries = 0; ///< Extra attempts beyond the first.
    u32 remaps = 0;  ///< Bad sectors remapped along the way.
    bool ok() const { return status == sim::DiskStatus::Ok; }
};

/** Remap every bad sector in [start, start+count); count successes. */
inline u32
remapBadRange(sim::Disk &disk, SectorNo start, u64 count)
{
    u32 remapped = 0;
    for (u64 i = 0; i < count; ++i) {
        if (disk.sectorBad(start + i) && disk.remapSector(start + i))
            ++remapped;
    }
    return remapped;
}

template <typename Op>
inline IoOutcome
retryOp(sim::Disk &disk, SectorNo start, u64 count,
        sim::SimClock &clock, const IoRetryPolicy &policy, Op op)
{
    IoOutcome out;
    out.status = op();
    if (!policy.enabled)
        return out;
    SimNs backoff = policy.backoffNs;
    u32 attempts = 1;
    const u32 budget = std::max(policy.maxAttempts, 1u);
    while (out.status != sim::DiskStatus::Ok && attempts < budget) {
        if (out.status == sim::DiskStatus::BadSector) {
            const u32 remapped = remapBadRange(disk, start, count);
            out.remaps += remapped;
            if (remapped == 0)
                return out; // Spare pool dry: abandoned.
        } else {
            clock.advance(backoff);
            backoff *= 2;
        }
        ++attempts;
        ++out.retries;
        out.status = op();
    }
    return out;
}

inline IoOutcome
retryRead(sim::Disk &disk, SectorNo start, u64 count,
          std::span<u8> outBuf, sim::SimClock &clock,
          const IoRetryPolicy &policy, SimNs overlapNs = 0)
{
    return retryOp(disk, start, count, clock, policy, [&] {
        return disk.read(start, count, outBuf, clock, overlapNs);
    });
}

inline IoOutcome
retryWrite(sim::Disk &disk, SectorNo start, u64 count,
           std::span<const u8> data, sim::SimClock &clock,
           const IoRetryPolicy &policy, bool queued = false)
{
    return retryOp(disk, start, count, clock, policy, [&] {
        return queued ? disk.queueWrite(start, count, data, clock)
                      : disk.write(start, count, data, clock);
    });
}

} // namespace rio::os

#endif // RIO_OS_IORETRY_HH
