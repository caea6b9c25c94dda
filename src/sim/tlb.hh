/**
 * @file
 * A small translation lookaside buffer in front of the page table.
 *
 * The TLB matters to Rio for two reasons: protection changes require
 * invalidations (modelled, with their cost), and the ABOX mapKseg
 * configuration forces even KSEG physical addresses through this
 * structure so that write-protection cannot be bypassed.
 */

#ifndef RIO_SIM_TLB_HH
#define RIO_SIM_TLB_HH

#include <vector>

#include "sim/pagetable.hh"
#include "support/types.hh"

namespace rio::sim
{

class Tlb
{
  public:
    static constexpr std::size_t kEntries = 256; // power of two

    Tlb();

    /**
     * Look up virtual page @p vpn.
     * @return Pointer to a cached PTE, or nullptr on miss.
     */
    const Pte *
    lookup(u64 vpn) const
    {
        const Entry &entry = entries_[indexOf(vpn)];
        if (entry.valid && entry.vpn == vpn)
            return &entry.pte;
        return nullptr;
    }

    /** Install a translation after a page-table walk. */
    void fill(u64 vpn, const Pte &pte);

    /** Invalidate any cached translation for @p vpn. */
    void invalidatePage(u64 vpn);

    /** Invalidate everything (context switch / reset). */
    void flushAll();

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }

    /** Stats hooks for MemBus. */
    void noteHit() { ++hits_; }
    void noteMiss() { ++misses_; }

  private:
    struct Entry
    {
        bool valid = false;
        u64 vpn = 0;
        Pte pte{};
    };

    std::size_t indexOf(u64 vpn) const { return vpn & (kEntries - 1); }

    std::vector<Entry> entries_;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace rio::sim

#endif // RIO_SIM_TLB_HH
