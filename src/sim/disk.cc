#include "sim/disk.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rio::sim
{

Disk::Disk(u64 bytes, const CostModel &costs, support::Rng rng)
    : numSectors_(bytes / kSectorSize), store_(bytes), costs_(costs),
      rng_(rng)
{
    assert(bytes % kSectorSize == 0);
}

SimNs
Disk::serviceTime(SectorNo start, u64 count)
{
    const u64 distance =
        start > head_ ? start - head_ : head_ - start;
    const SimNs xfer = static_cast<SimNs>(
        static_cast<double>(count * kSectorSize) / costs_.diskBytesPerNs);

    if (start == head_) {
        // Sequential access streams off the track buffer: no seek,
        // no rotational delay.
        head_ = start + count;
        return costs_.diskControllerNs + xfer;
    }

    const double frac =
        numSectors_ ? static_cast<double>(distance) / numSectors_ : 0.0;
    const SimNs seek =
        static_cast<SimNs>(frac * costs_.diskFullSeekNs);
    // Rotational position is effectively random; keep it deterministic
    // by drawing from the disk's own seeded stream. Short hops inside
    // a track pay at most a fraction of a revolution.
    double rotScale = 1.0;
    if (distance < 128)
        rotScale = 0.25;
    const SimNs rot = static_cast<SimNs>(
        rng_.real() * 2.0 * costs_.diskAvgRotNs * rotScale);
    head_ = start + count;
    return costs_.diskControllerNs + seek + rot + xfer;
}

bool
Disk::clampRange(SectorNo start, u64 &count)
{
    if (start >= numSectors_) {
        count = 0;
        return false;
    }
    count = std::min(count, numSectors_ - start);
    return count > 0;
}

bool
Disk::rangeHasBadSector(SectorNo start, u64 count) const
{
    if (badSectors_.empty())
        return false;
    for (u64 i = 0; i < count; ++i)
        if (badSectors_.count(start + i))
            return true;
    return false;
}

DiskStatus
Disk::faultCheck(bool isWrite, SectorNo start, u64 count)
{
    if (faults_ != nullptr &&
        faults_->transientError(isWrite, start, count)) {
        ++stats_.transientErrors;
        return DiskStatus::TransientError;
    }
    if (rangeHasBadSector(start, count)) {
        ++stats_.badSectorErrors;
        return DiskStatus::BadSector;
    }
    return DiskStatus::Ok;
}

void
Disk::doTransfer(SectorNo start, u64 count, SimClock &clock,
                 bool is_write, SimNs overlapNs)
{
    assert(start + count <= numSectors_);
    poll(clock.now());

    // Synchronous requests get priority over queued asynchronous
    // writes (drivers reorder; reads jump the queue), but must wait
    // for (a) the transfer already on the platter and (b) any queued
    // write that overlaps the requested sectors (read-after-write
    // consistency).
    SimNs readyAt = clock.now();
    SimNs shiftFrom = clock.now();
    for (const Pending &pending : queue_) {
        const bool inFlight = pending.startTime <= clock.now();
        const bool overlaps =
            pending.start < start + count &&
            start < pending.start + pending.count;
        if (inFlight || overlaps)
            readyAt = std::max(readyAt, pending.completeTime);
    }
    clock.advanceTo(readyAt);
    poll(clock.now());

    const SimNs service = serviceTime(start, count);
    const SimNs visible = service > overlapNs ? service - overlapNs : 0;
    clock.advance(visible);
    stats_.busyNs += service;

    // Queued writes that had not started yet are pushed back by the
    // time we (visibly) occupied the head.
    for (Pending &pending : queue_) {
        if (pending.startTime >= shiftFrom) {
            pending.startTime += visible;
            pending.completeTime += visible;
        }
    }
    lastComplete_ = std::max(lastComplete_, clock.now());
    if (!queue_.empty())
        lastComplete_ =
            std::max(lastComplete_, queue_.back().completeTime);

    if (is_write) {
        ++stats_.writes;
        stats_.sectorsWritten += count;
    } else {
        ++stats_.reads;
        stats_.sectorsRead += count;
    }
}

DiskStatus
Disk::read(SectorNo start, u64 count, std::span<u8> out,
           SimClock &clock, SimNs overlapNs)
{
    assert(out.size() >= count * kSectorSize);
    if (!clampRange(start, count))
        return DiskStatus::Ok;
    doTransfer(start, count, clock, false, overlapNs);
    // The head moved and time passed even when the op fails: a
    // transient error or bad sector is detected during the transfer.
    const DiskStatus status = faultCheck(false, start, count);
    if (status != DiskStatus::Ok)
        return status;
    std::memcpy(out.data(), store_.data() + start * kSectorSize,
                count * kSectorSize);
    return DiskStatus::Ok;
}

DiskStatus
Disk::write(SectorNo start, u64 count, std::span<const u8> data,
            SimClock &clock)
{
    assert(data.size() >= count * kSectorSize);
    const u64 asked = count;
    if (!clampRange(start, count)) {
        ++stats_.clampedWrites;
        return DiskStatus::Ok;
    }
    if (count != asked)
        ++stats_.clampedWrites;
    doTransfer(start, count, clock, true);
    const DiskStatus status = faultCheck(true, start, count);
    if (status != DiskStatus::Ok)
        return status;
    store_.copyIn(start * kSectorSize,
                  data.first(count * kSectorSize));
    hook_.emit(EventKind::DiskWrite, start, count);
    return DiskStatus::Ok;
}

DiskStatus
Disk::queueWrite(SectorNo start, u64 count, std::span<const u8> data,
                 SimClock &clock)
{
    assert(data.size() >= count * kSectorSize);
    const u64 asked = count;
    if (!clampRange(start, count)) {
        ++stats_.clampedWrites;
        return DiskStatus::Ok;
    }
    if (count != asked)
        ++stats_.clampedWrites;
    poll(clock.now());
    // Nothing observes asynchronous completion, so the fault dice
    // roll at queue time and the caller learns the outcome up front.
    const DiskStatus status = faultCheck(true, start, count);
    if (status != DiskStatus::Ok)
        return status;
    Pending pending;
    pending.start = start;
    pending.count = count;
    pending.data.assign(data.begin(),
                        data.begin() + count * kSectorSize);
    pending.startTime = std::max(clock.now(), lastComplete_);
    const SimNs service = serviceTime(start, count);
    pending.completeTime = pending.startTime + service;
    lastComplete_ = pending.completeTime;
    stats_.busyNs += service;
    ++stats_.queuedWrites;
    queue_.push_back(std::move(pending));
    return DiskStatus::Ok;
}

void
Disk::poll(SimNs now)
{
    while (!queue_.empty() && queue_.front().completeTime <= now) {
        apply(queue_.front());
        queue_.pop_front();
    }
}

void
Disk::apply(const Pending &pending)
{
    u64 count = pending.count;
    if (!clampRange(pending.start, count)) {
        ++stats_.clampedWrites;
        return;
    }
    if (count != pending.count)
        ++stats_.clampedWrites;
    store_.copyIn(pending.start * kSectorSize,
                  std::span<const u8>(pending.data)
                      .first(count * kSectorSize));
    ++stats_.writes;
    stats_.sectorsWritten += count;
    hook_.emit(EventKind::DiskWrite, pending.start, count);
}

void
Disk::drain(SimClock &clock)
{
    if (!queue_.empty())
        clock.advanceTo(queue_.back().completeTime);
    poll(clock.now());
}

u64
Disk::crashDropQueue(SimNs when)
{
    poll(when);
    u64 lost = 0;
    if (!queue_.empty()) {
        // The head of the queue may be mid-transfer: tear it.
        Pending &inflight = queue_.front();
        if (inflight.startTime < when) {
            const SimNs dur =
                inflight.completeTime - inflight.startTime;
            const double frac =
                dur > 0 ? static_cast<double>(when - inflight.startTime) /
                              static_cast<double>(dur)
                        : 0.0;
            u64 done = static_cast<u64>(
                frac * static_cast<double>(inflight.count));
            // A torn write never lands whole: float rounding must not
            // let `done` reach `count`, or a 1-sector write would
            // escape its garbage sector.
            if (done >= inflight.count)
                done = inflight.count - 1;
            // Clamp at the device end instead of scribbling past the
            // last sector.
            const u64 devLimit = inflight.start < numSectors_
                                     ? numSectors_ - inflight.start
                                     : 0;
            if (devLimit < inflight.count)
                ++stats_.clampedWrites;
            const u64 copy = std::min(done, devLimit);
            if (copy > 0) {
                store_.copyIn(inflight.start * kSectorSize,
                              std::span<const u8>(inflight.data)
                                  .first(copy * kSectorSize));
            }
            const SectorNo tornAt = inflight.start + done;
            if (tornAt < numSectors_) {
                // The sector under the head at crash time is garbage.
                u8 *torn = store_.data() + tornAt * kSectorSize;
                for (u64 i = 0; i < kSectorSize; ++i)
                    torn[i] = static_cast<u8>(rng_.next());
            }
            ++lost;
            queue_.pop_front();
        }
    }
    lost += queue_.size();
    queue_.clear();
    if (faults_ != nullptr)
        faults_->onCrash(*this, when);
    return lost;
}

void
Disk::markBadSector(SectorNo sector)
{
    assert(sector < numSectors_);
    badSectors_.insert(sector);
}

bool
Disk::remapSector(SectorNo sector)
{
    if (badSectors_.count(sector) == 0)
        return false;
    if (spareSectors_ == 0) {
        ++stats_.remapExhausted;
        return false;
    }
    badSectors_.erase(sector);
    --spareSectors_;
    ++stats_.sectorsRemapped;
    // The spare is fresh media: whatever the bad sector held is gone.
    std::memset(store_.data() + sector * kSectorSize, 0, kSectorSize);
    return true;
}

std::span<const u8>
Disk::peekSector(SectorNo sector) const
{
    assert(sector < numSectors_);
    return {store_.data() + sector * kSectorSize, kSectorSize};
}

std::span<u8>
Disk::hostSector(SectorNo sector)
{
    assert(sector < numSectors_);
    return {store_.data() + sector * kSectorSize, kSectorSize};
}

} // namespace rio::sim
