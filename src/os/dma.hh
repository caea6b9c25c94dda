/**
 * @file
 * Device DMA helpers. I/O devices address physical memory directly
 * and are not subject to CPU page protection — which is exactly why
 * the paper distinguishes *direct* corruption (wild CPU stores,
 * stopped by Rio's protection) from *indirect* corruption (an I/O
 * routine called with wrong parameters, which no memory protection
 * can stop). Transfer time is charged by the disk model, not here.
 */

#ifndef RIO_OS_DMA_HH
#define RIO_OS_DMA_HH

#include <cassert>
#include <cstring>
#include <span>

#include "sim/membus.hh"
#include "sim/physmem.hh"
#include "support/types.hh"

namespace rio::os
{

/**
 * Device-to-memory transfer (e.g. disk read completion). The bus
 * checks no protection here, but its watch still sees the write: a
 * lazy checksum may read the bytes it replaces.
 */
inline void
dmaWrite(sim::MemBus &bus, Addr pa, std::span<const u8> data)
{
    auto &mem = bus.mem();
    assert(pa + data.size() <= mem.size());
    bus.noteDeviceWrite(pa, data.size());
    // riolint:allow(R1) DMA addresses physical memory directly; I/O
    // bypasses CPU page protection by design (paper section 4.2).
    std::memcpy(mem.raw() + pa, data.data(), data.size());
}

/** Memory-to-device transfer (e.g. disk write). */
inline void
dmaRead(sim::PhysMem &mem, Addr pa, std::span<u8> out)
{
    assert(pa + out.size() <= mem.size());
    // riolint:allow(R1) device-side read of physical memory; not a
    // kernel store path.
    std::memcpy(out.data(), mem.raw() + pa, out.size());
}

} // namespace rio::os

#endif // RIO_OS_DMA_HH
