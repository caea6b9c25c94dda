#include "core/nvmirror.hh"

#include <algorithm>
#include <optional>

#include "core/registry.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"

namespace rio::core
{

using L = RegistryLayout;
using NvL = NvMirrorLayout;

namespace
{

/** How a 64-byte registry slot reads. */
enum class Slot : u8
{
    Free,    ///< Magic zero: deliberately empty.
    Invalid, ///< Fails decoding or the parseRegistry sanity rules.
    Valid,   ///< Decodes to a sane entry.
};

/** Read the mirror/header out of the NV region: timed through the
 *  controller when a clock is supplied, host-side otherwise (the
 *  bytes are identical either way). */
void
nvFetch(sim::NvRegion &nv, u64 offset, std::span<u8> out,
        sim::SimClock *clock)
{
    if (clock) {
        nv.read(offset, out, *clock);
        return;
    }
    const auto image = nv.image();
    std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
}

} // namespace

NvMirrorGraft
graftNvMirror(sim::Machine &machine, RecoveryImage &image,
              bool verified, sim::SimClock *clock)
{
    NvMirrorGraft graft;
    sim::NvRegion *nv = machine.nv();
    if (!nv || nv->size() < NvL::kHeaderBytes)
        return graft;

    std::vector<u8> header(NvL::kHeaderBytes, 0);
    nvFetch(*nv, 0, header, clock);
    std::span<const u8> h(header);
    const u32 magic = support::loadLE<u32>(h, NvL::kOffMagic);
    if (magic == 0)
        return graft; // Mirror never initialised.
    graft.present = true;

    const auto &reg = machine.mem().region(sim::RegionKind::Registry);
    const bool headerOk =
        magic == NvL::kMagic &&
        support::loadLE<u32>(h, NvL::kOffVersion) == NvL::kVersion &&
        support::loadLE<u64>(h, NvL::kOffRegBase) == reg.base &&
        support::loadLE<u64>(h, NvL::kOffRegSize) == reg.size &&
        support::loadLE<u32>(h, NvL::kOffChecksum) ==
            support::checksum32(h.first(NvL::kOffChecksum)) &&
        NvL::kHeaderBytes + reg.size <= nv->size() &&
        reg.base + reg.size <= image.size();
    if (!headerOk) {
        graft.corrupt = true;
        return graft;
    }

    graft.body.assign(reg.size, 0);
    nvFetch(*nv, NvL::kHeaderBytes, graft.body, clock);
    graft.valid = true;
    const std::span<u8> region = image.writableRegistry();

    const auto &buf = machine.mem().region(sim::RegionKind::BufPool);
    const auto &ubc = machine.mem().region(sim::RegionKind::UbcPool);
    const u64 entryCount = buf.pages() + ubc.pages();
    const std::span<const u8> body(graft.body);

    if (!verified) {
        // Trusting: count the slots that will change, then copy the
        // whole body — entries and shadow pages — over the region.
        for (u64 i = 0; i < entryCount; ++i) {
            const u64 off = i * L::kEntrySize;
            if (off + L::kEntrySize > body.size())
                break;
            const auto mirror = body.subspan(off, L::kEntrySize);
            const auto live = region.subspan(off, L::kEntrySize);
            if (!std::equal(mirror.begin(), mirror.end(),
                            live.begin()))
                ++graft.entriesGrafted;
        }
        std::copy(body.begin(), body.end(), region.begin());
        return graft;
    }

    // Hardened: per-slot verified merge. The same sanity rules
    // parseRegistry applies decide whether a slot "decodes".
    auto pageOk = [&](Addr pa) {
        if ((pa & (sim::kPageSize - 1)) != 0)
            return false;
        return buf.contains(pa) || ubc.contains(pa);
    };
    auto classify = [&](std::span<const u8> raw,
                        std::optional<RegistryEntry> &out) {
        if (support::loadLE<u32>(raw, L::kOffMagic) == 0)
            return Slot::Free;
        out = decodeRegistryEntry(raw);
        if (!out)
            return Slot::Invalid;
        const bool stateOk = out->state == L::kStateActive ||
                             out->state == L::kStateChanging;
        const bool kindOk = out->kind == L::kKindData ||
                            out->kind == L::kKindMetadata;
        if (!stateOk || !kindOk || !pageOk(out->physAddr) ||
            out->size > sim::kPageSize)
            return Slot::Invalid;
        if (out->state == L::kStateChanging && out->shadowAddr != 0 &&
            !reg.contains(out->shadowAddr))
            return Slot::Invalid;
        return Slot::Valid;
    };
    auto contentVerifies = [&](const RegistryEntry &entry) {
        if (entry.checksum == 0)
            return false;
        if (entry.physAddr + sim::kPageSize > image.size())
            return false;
        const u64 n = std::min<u64>(entry.size, sim::kPageSize);
        return bindChecksum(
                   support::checksum32(image.bytes(entry.physAddr, n)),
                   entry.diskBlock) == entry.checksum;
    };

    for (u64 i = 0; i < entryCount; ++i) {
        const u64 off = i * L::kEntrySize;
        if (off + L::kEntrySize > body.size())
            break;
        const auto mirror = body.subspan(off, L::kEntrySize);
        const auto live = region.subspan(off, L::kEntrySize);
        if (std::equal(mirror.begin(), mirror.end(), live.begin()))
            continue;
        std::optional<RegistryEntry> liveEntry, nvEntry;
        const Slot liveSlot = classify(live, liveEntry);
        const Slot nvSlot = classify(mirror, nvEntry);
        bool take = false;
        if (liveSlot == Slot::Invalid && nvSlot != Slot::Invalid) {
            // The in-memory slot was destroyed (wild store, decay,
            // corruptor); the battery-backed copy survives. The NV
            // tier is not beyond suspicion either — a torn line can
            // keep a slot's magic while scrambling its fields — so a
            // settled mirror entry must also pass its own
            // location-bound checksum before it is grafted. Changing
            // entries fail content checks legitimately and are let
            // through for the shadow machinery to settle downstream.
            take = nvSlot == Slot::Free ||
                   nvEntry->state == L::kStateChanging ||
                   contentVerifies(*nvEntry);
        } else if (liveSlot == Slot::Valid && nvSlot == Slot::Valid &&
                   liveEntry->state != L::kStateChanging &&
                   nvEntry->state != L::kStateChanging &&
                   !contentVerifies(*liveEntry) &&
                   contentVerifies(*nvEntry)) {
            // Both decode, but only the mirror's location-bound
            // checksum holds up against the surviving page content.
            // Changing entries are excluded: mid-update pages fail
            // content checks legitimately and the shadow candidates
            // settle those downstream.
            take = true;
        }
        if (take) {
            std::copy(mirror.begin(), mirror.end(), live.begin());
            ++graft.entriesGrafted;
        }
    }
    // A free in-image slot is never overridden: Free is a deliberate
    // state (invalidate), and the mirror trails the truth by at most
    // one protocol step — resurrecting an invalidated page from NV
    // would restore deliberately-retired metadata.
    return graft;
}

} // namespace rio::core
