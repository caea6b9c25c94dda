#include "os/kcopy.hh"

#include <algorithm>
#include <cassert>
#include <vector>

namespace rio::os
{

KCopy::KCopy(sim::Machine &machine, KProcTable &procs)
    : machine_(machine), procs_(procs)
{}

u64
KCopy::overrunLength()
{
    if (!overrunArmed_)
        return 0;
    if (overrunCountdown_-- != 0)
        return 0;
    overrunCountdown_ = faultRng_.between(150, 600);
    ++overruns_;
    // Distribution from [Sullivan91b], as adapted by the paper.
    const double roll = faultRng_.real();
    if (roll < 0.50)
        return 1;
    if (roll < 0.94)
        return faultRng_.between(2, 1024);
    return faultRng_.between(2048, 4096);
}

u64
KCopy::offByOneExtra()
{
    if (!offByOneArmed_)
        return 0;
    if (offByOneCountdown_-- != 0)
        return 0;
    offByOneCountdown_ = faultRng_.between(150, 600);
    // An off-by-one loop condition overruns whatever buffer that
    // loop walks. Most kernel loops walk internal buffers (stack
    // arrays, heap structures) — model those as a one-byte scribble
    // into the heap — and only a small minority sit on the file-cache copy
    // path, where the extra element lands past the destination.
    if (faultRng_.chance(0.95)) {
        const auto &heap =
            machine_.mem().region(sim::RegionKind::KernelHeap);
        // Target the occupied span (a production heap is dense).
        u64 span = heap.size;
        if (heap_ != nullptr) {
            span = std::min(
                heap.size,
                std::max<u64>(64 << 10,
                              heap_->allocatedBytes() * 5 / 4));
        }
        // The scribbled value is drawn before its address.
        const auto value = static_cast<u8>(faultRng_.next());
        const Addr victim = heap.base + faultRng_.below(span);
        assert(!machine_.bus().watches(victim, 1));
        // riolint:allow(R1) fault-injection scribble: the modelled
        // off-by-one corrupts memory behind the kernel's back, so it
        // must not go through the checked bus.
        machine_.mem().raw()[victim] = value;
        return 0;
    }
    return 1;
}

void
KCopy::armOverrun(support::Rng &rng)
{
    overrunArmed_ = true;
    faultRng_ = rng.fork();
    overrunCountdown_ = faultRng_.between(2, 64);
}

void
KCopy::armOffByOne(support::Rng &rng)
{
    offByOneArmed_ = true;
    faultRng_ = rng.fork();
    offByOneCountdown_ = faultRng_.between(2, 64);
}

void
KCopy::copyIn(Addr dst, std::span<const u8> src)
{
    ++calls_;
    procs_.enter(ProcId::KBcopy);
    machine_.bus().writeBytes(dst, src);
    const u64 extra = overrunLength() + offByOneExtra();
    if (extra > 0) {
        // The overrun continues past the end of the destination with
        // whatever the source register happened to point at: garbage.
        std::vector<u8> junk(extra);
        faultRng_.fill(junk);
        machine_.bus().writeBytes(dst + src.size(), junk);
    }
}

void
KCopy::copyOut(std::span<u8> dst, Addr src)
{
    ++calls_;
    procs_.enter(ProcId::KBcopy);
    machine_.bus().readBytes(src, dst);
    // A destination overrun here lands in user space; it cannot
    // corrupt the kernel's file cache, so nothing further to model.
}

void
KCopy::copy(Addr dst, Addr src, u64 n)
{
    ++calls_;
    procs_.enter(ProcId::KBcopy);
    const u64 extra = overrunLength() + offByOneExtra();
    machine_.bus().copy(dst, src, n + extra);
}

void
KCopy::zero(Addr dst, u64 n)
{
    ++calls_;
    procs_.enter(ProcId::KBzero);
    const u64 extra = overrunLength() + offByOneExtra();
    machine_.bus().set(dst, 0, n + extra);
}

} // namespace rio::os
