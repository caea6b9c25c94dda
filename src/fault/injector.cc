#include "fault/injector.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rio::fault
{

FaultInjector::FaultInjector(os::Kernel &kernel, support::Rng rng)
    : kernel_(kernel), rng_(rng)
{}

void
FaultInjector::flipBitIn(sim::RegionKind regionKind)
{
    auto &mem = kernel_.machine().mem();
    const auto &region = mem.region(regionKind);
    const u64 byte = region.base + rng_.below(region.size);
    assert(!kernel_.machine().bus().watches(byte, 1));
    // riolint:allow(R1) hardware fault model: bit flips corrupt the
    // physical array beneath the kernel, bypassing every check.
    mem.raw()[byte] ^= static_cast<u8>(1u << rng_.below(8));
}

void
FaultInjector::armOnRandomProc(FaultType type)
{
    auto &procs = kernel_.procs();
    const os::ProcId proc = procs.randomProc(rng_);
    const os::Manifestation m =
        drawManifestation(manifestationWeights(type), rng_);
    if (m.kind != os::Manifestation::Kind::None) {
        procs.arm(proc, m);
        ++stats_.manifestationsArmed;
    }
}

void
FaultInjector::corruptPointer()
{
    // Half the time, clobber a pointer field in a live buffer or UBC
    // header — the kernel's next use of that header goes wild. The
    // rest of the time the lost base register shows up as a wild
    // store from a random procedure.
    if (rng_.chance(0.5)) {
        auto &mem = kernel_.machine().mem();
        const Addr header =
            rng_.chance(0.5)
                ? kernel_.bufferCache().randomLiveHeaderAddr(rng_)
                : kernel_.ubc().randomLiveHeaderAddr(rng_);
        if (header != 0) {
            // The data-pointer field lives at offset 16 (buf) or 24
            // (ubc); corrupt one of the first eight 8-byte fields so
            // flags/identity fields are also fair game, as with a
            // real stale base register.
            const u64 field = rng_.below(8) * 8;
            u64 garbage;
            if (rng_.chance(0.5)) {
                // Offset the existing value (stale pointer).
                // riolint:allow(R1) fault model reads the live header
                // behind the kernel's back.
                std::memcpy(&garbage, mem.raw() + header + field, 8);
                garbage += (rng_.below(2) ? 8 : static_cast<u64>(-8)) *
                           (1 + rng_.below(512));
            } else {
                garbage = rng_.next();
            }
            assert(!kernel_.machine().bus().watches(header + field, 8));
            // riolint:allow(R1) injected pointer corruption must not
            // be stopped by the bus checks it exists to defeat.
            std::memcpy(mem.raw() + header + field, &garbage, 8);
            ++stats_.headersCorrupted;
            return;
        }
    }
    armOnRandomProc(FaultType::PointerCorruption);
}

void
FaultInjector::inject(FaultType type)
{
    ++stats_.injected;
    switch (type) {
      case FaultType::BitFlipText: {
        flipBitIn(sim::RegionKind::KernelText);
        ++stats_.textBitsFlipped;
        // The flipped instruction manifests when its procedure runs.
        const auto &mem = kernel_.machine().mem();
        const auto &text = mem.region(sim::RegionKind::KernelText);
        const Addr addr = text.base + rng_.below(text.size);
        const os::ProcId proc =
            kernel_.procs().procForTextAddr(addr);
        const os::Manifestation m = drawManifestation(
            manifestationWeights(FaultType::BitFlipText), rng_);
        if (m.kind != os::Manifestation::Kind::None) {
            kernel_.procs().arm(proc, m);
            ++stats_.manifestationsArmed;
        }
        return;
      }
      case FaultType::BitFlipHeap: {
        // Purely causal: buffer headers, UBC headers, allocator
        // headers and open-file structures live there. A production
        // kernel's heap is densely populated; ours is a first-fit
        // arena with the live data packed at the front, so flip
        // within the occupied span to model the same density.
        auto &mem = kernel_.machine().mem();
        const auto &region =
            mem.region(sim::RegionKind::KernelHeap);
        const u64 occupied = std::min(
            region.size,
            std::max<u64>(64 << 10,
                          kernel_.heap().allocatedBytes() * 5 / 4));
        const u64 byte = region.base + rng_.below(occupied);
        assert(!kernel_.machine().bus().watches(byte, 1));
        // riolint:allow(R1) hardware fault model, as above.
        mem.raw()[byte] ^= static_cast<u8>(1u << rng_.below(8));
        ++stats_.heapBitsFlipped;
        return;
      }
      case FaultType::BitFlipStack:
        flipBitIn(sim::RegionKind::KernelStack);
        ++stats_.stackBitsFlipped;
        // A corrupted frame (saved registers / return address)
        // manifests when some procedure returns through it.
        armOnRandomProc(FaultType::BitFlipStack);
        return;
      case FaultType::DestReg:
      case FaultType::SrcReg:
      case FaultType::DeleteBranch:
      case FaultType::DeleteRandomInst:
        flipBitIn(sim::RegionKind::KernelText);
        armOnRandomProc(type);
        return;
      case FaultType::Initialization:
        if (!kernel_.heap().corruptRecentAllocation(rng_))
            armOnRandomProc(FaultType::DeleteRandomInst);
        return;
      case FaultType::PointerCorruption:
        corruptPointer();
        return;
      case FaultType::AllocationMgmt:
        if (!allocArmed_) {
            kernel_.heap().armPrematureFree(rng_);
            allocArmed_ = true;
        }
        return;
      case FaultType::CopyOverrun:
        if (!overrunArmed_) {
            kernel_.kcopy().armOverrun(rng_);
            overrunArmed_ = true;
        }
        return;
      case FaultType::OffByOne:
        if (!offByOneArmed_) {
            kernel_.kcopy().armOffByOne(rng_);
            offByOneArmed_ = true;
        }
        return;
      case FaultType::Synchronization:
        if (!syncArmed_) {
            kernel_.locks().armSyncFault(rng_);
            syncArmed_ = true;
        }
        return;
      case FaultType::NumTypes:
        return;
    }
}

} // namespace rio::fault
