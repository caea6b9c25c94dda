/**
 * @file
 * The NV registry mirror (rio-nv): the layout RioSystem maintains in
 * the machine's NvRegion, and the warm-reboot graft that merges the
 * mirror into a crashed memory image before the registry scan.
 *
 * Layout: a 64-byte header — magic, version, the registry region's
 * base and size, and a header checksum — followed by a byte-for-byte
 * mirror of the whole Registry region (entries and shadow pages), so
 * a physical address pa inside the region mirrors at NV offset
 * kHeaderBytes + (pa - regBase).
 *
 * The graft is shared between core/warmreboot (which restores from
 * it) and harness/oracle (which must predict warmreboot's decisions
 * byte-exactly), so it lives here rather than in either.
 */

#ifndef RIO_CORE_NVMIRROR_HH
#define RIO_CORE_NVMIRROR_HH

#include <span>
#include <vector>

#include "core/registry.hh"
#include "sim/machine.hh"
#include "support/types.hh"

namespace rio::core
{

struct NvMirrorLayout
{
    static constexpr u32 kMagic = 0x4E564D52;
    static constexpr u32 kVersion = 1;

    /** Header size; the mirror body starts here. */
    static constexpr u64 kHeaderBytes = 64;

    /** @{ Header field offsets. */
    static constexpr u64 kOffMagic = 0;
    static constexpr u64 kOffVersion = 4;
    static constexpr u64 kOffRegBase = 8;
    static constexpr u64 kOffRegSize = 16;
    /** checksum32 of the header bytes before this field. */
    static constexpr u64 kOffChecksum = 24;
    /** @} */
};

/** What graftNvMirror found and did. */
struct NvMirrorGraft
{
    bool present = false;   ///< A mirror header was found.
    bool corrupt = false;   ///< Header found but failed validation.
    bool valid = false;     ///< Mirror usable; body below is filled.
    u64 entriesGrafted = 0; ///< Entry slots taken from the mirror.
    /** The validated mirror body (registry-region bytes), kept so
     *  the restore can consult the NV copy of a shadow page. */
    std::vector<u8> body;
};

/**
 * Validate the machine's NV mirror and merge it into @p image (a
 * surviving-memory image about to be fed to parseRegistry). Only
 * the image's Registry region is written, through its private copy,
 * which a valid mirror always takes. A no-op returning an all-false
 * result when the machine has no NV region or the mirror was never
 * initialised.
 *
 * @p verified selects the merge discipline:
 *
 *  - true (hardened): per-slot merge. A mirror slot replaces the
 *    in-image slot only where the in-image slot fails to decode, or
 *    where both decode as stable entries but only the mirror's
 *    location-bound checksum verifies against the surviving page
 *    content. Shadow pages are never merged wholesale; the body is
 *    returned so the metadata restore can try the NV copy of a
 *    shadow as a last candidate.
 *
 *  - false (trusting): the whole mirror body is copied over the
 *    image's registry region unconditionally — the pre-hardening
 *    behaviour whose failure mode the NV ablation measures (a
 *    decayed mirror poisons the restore).
 *
 * @p clock, when non-null, charges NV controller read time for the
 * header and body (the oracle passes nullptr: an instrumentation
 * capture must not perturb the simulated clock).
 */
NvMirrorGraft graftNvMirror(sim::Machine &machine, RecoveryImage &image,
                            bool verified, sim::SimClock *clock);

} // namespace rio::core

#endif // RIO_CORE_NVMIRROR_HH
