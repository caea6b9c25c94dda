/**
 * @file
 * Post-crash corruption stage: mutates the raw surviving memory
 * image *after* the kernel has crashed but *before* WarmReboot runs.
 *
 * The fault injector (injector.hh) models software faults inside a
 * running kernel; everything it breaks, it breaks through the
 * kernel's own stores, so the registry damage it can cause is limited
 * to what the crashed kernel happened to do. This stage models the
 * rest of the paper's threat (section 3): by the time the warm reboot
 * looks at memory, the image is *arbitrary* — wild DMA, a dying
 * kernel scribbling anywhere, ECC gone bad across the outage. It
 * flips bits in live registry entries, smashes entry magics,
 * cross-links diskBlock/physAddr fields between entries (so two
 * entries claim the same block, or an entry points at another
 * entry's page), scribbles over the metadata pages and shadow copies
 * the registry points at, and zeroes a tail of physical memory (the
 * surviving image is effectively truncated).
 *
 * All damage is drawn from the provided Rng, so a campaign trial's
 * corruption is reproducible from its seed. Intensity scales the
 * number of mutations per round; individual mutation classes can be
 * switched off to attribute recovery failures to a specific class.
 */

#ifndef RIO_FAULT_POSTCRASH_HH
#define RIO_FAULT_POSTCRASH_HH

#include "sim/machine.hh"
#include "support/rng.hh"

namespace rio::fault
{

struct PostCrashConfig
{
    /** Scales every mutation count below; 0 disables the stage. */
    double intensity = 1.0;

    bool flipRegistryBits = true; ///< Random bit flips in live entries.
    bool smashMagics = true;      ///< Overwrite an entry's magic.
    bool crossLinkClaims = true;  ///< Copy one entry's diskBlock into another.
    bool crossLinkPages = true;   ///< Copy one entry's physAddr into another.
    bool smashPageBytes = true;   ///< Scribble on a registered page.
    bool smashShadows = true;     ///< Scribble on an in-use shadow copy.
    bool zeroTail = true;         ///< Zero trailing pages of memory.

    /** @{ rio-nv damage classes; silent no-ops on machines without
     *  an NV region, so the draw sequence of the classes above is
     *  untouched on classic configurations. */
    bool nvBitDecay = true;    ///< Random bit flips anywhere in NV.
    bool nvTornLines = true;   ///< Scribble whole NV cache lines.
    bool nvSmashMirror = true; ///< Scribble the NV mirror header.
    /** @} */

    /** @{ Journal log-area damage classes (ext3-grade journal): the
     *  outage attacks the on-disk log the way the classes above
     *  attack the registry. Drawn strictly after the NV classes, and
     *  silent no-ops when the disk holds no valid journal superblock
     *  or no committed transactions — so the draw sequence is
     *  untouched on every other configuration. Disk damage: applies
     *  even when memory does not survive the reset. */
    bool jrnTearCommit = true; ///< Scramble a committed tx's payload
                               ///< while its commit record survives.
    bool jrnStaleSeq = true;   ///< Descriptor sequence number from a
                               ///< wrapped (previous) log generation.
    bool jrnSmashDescriptor = true; ///< Scribble a descriptor block.
    /** @} */
};

struct PostCrashStats
{
    u64 ops = 0; ///< Mutations actually applied.
    u64 registryBitsFlipped = 0;
    u64 magicsSmashed = 0;
    u64 claimsCrossLinked = 0;
    u64 pagesCrossLinked = 0;
    u64 pageBytesSmashed = 0;
    u64 shadowsSmashed = 0;
    u64 tailBytesZeroed = 0;
    u64 nvBitsFlipped = 0;  ///< rio-nv: decayed NV bits.
    u64 nvLinesTorn = 0;    ///< rio-nv: scribbled NV cache lines.
    u64 nvMirrorsSmashed = 0; ///< rio-nv: mirror headers destroyed.
    u64 jrnCommitsTorn = 0; ///< Journal payload blocks scrambled.
    u64 jrnStaleSeqs = 0;   ///< Descriptor seqs rewritten stale.
    u64 jrnDescriptorsSmashed = 0; ///< Descriptor blocks scribbled.

    /** Field-wise sum, for a trial that is damaged once per outage. */
    PostCrashStats &operator+=(const PostCrashStats &other);
};

class PostCrashCorruptor
{
  public:
    PostCrashCorruptor(sim::Machine &machine, support::Rng rng,
                       PostCrashConfig config = {});

    /**
     * Apply one round of corruption to the surviving image. Call
     * between Machine::reset(ResetKind::Warm) and constructing the
     * WarmReboot (or rebooting a journal kernel). A no-op when
     * intensity is 0; the memory classes are additionally no-ops
     * when memory did not survive the reset (the journal classes
     * damage the disk and always apply).
     */
    PostCrashStats corrupt();

    const PostCrashConfig &config() const { return config_; }

  private:
    void corruptMemory(PostCrashStats &stats);
    void corruptJournal(PostCrashStats &stats);

    sim::Machine &machine_;
    support::Rng rng_;
    PostCrashConfig config_;
};

} // namespace rio::fault

#endif // RIO_FAULT_POSTCRASH_HH
