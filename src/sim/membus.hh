/**
 * @file
 * The memory bus: every simulated-kernel load and store goes through
 * here. This is the single enforcement point for the semantics the
 * paper's protection scheme depends on:
 *
 *  - Normal kernel virtual addresses are translated via TLB + page
 *    table; invalid addresses raise machine checks, stores to
 *    read-only pages raise protection faults.
 *  - KSEG addresses (top two bits 10) bypass the TLB and address
 *    physical memory directly — *unless* the CPU's ABOX mapKseg bit
 *    forces them through the TLB (Rio's VM protection mode).
 *  - In code-patching mode, a software check inserted before every
 *    kernel store consults the protection policy instead, at a per-
 *    store time cost (the 20-50% slowdown of section 2.1).
 *
 * A wild store with a random 64-bit address therefore almost always
 * raises a machine check, reproducing the paper's observation that on
 * a 64-bit machine most errors are first detected by an illegal
 * address.
 */

#ifndef RIO_SIM_MEMBUS_HH
#define RIO_SIM_MEMBUS_HH

#include <span>

#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/crash.hh"
#include "sim/event.hh"
#include "sim/pagetable.hh"
#include "sim/physmem.hh"
#include "sim/tlb.hh"
#include "support/types.hh"

namespace rio::sim
{

class StoreAudit;

/**
 * Hook implemented by rio::core::Protection. Supplies the
 * code-patching address check and observes protection stops (the
 * "saves" counted in section 3.3).
 */
class ProtectionPolicy
{
  public:
    virtual ~ProtectionPolicy() = default;

    /** Code-patching check: would this store corrupt the file cache? */
    virtual bool patchCheckBlocksStore(Addr pa) const = 0;

    /** A store was stopped (by VM protection or a patch check). */
    virtual void onProtectionStop(Addr pa) = 0;
};

/**
 * Observer of bus accesses to a few marked physical pages, for a layer
 * that keeps state host-side until the simulated machine could
 * observe it (Rio's lazy page checksums, core/rio.hh). The bus calls
 * back before a matching access moves any bytes.
 */
class AccessWatch
{
  public:
    /** A run of pages from @p first; page first + i is watched while
     *  marks[i] is nonzero. */
    struct Window
    {
        u64 first = 0;
        std::span<const u8> marks;
    };

    virtual ~AccessWatch() = default;

    /**
     * A load (@p write false) or store of [pa, pa + len), inside one
     * page, hits a watched page. A store has passed every protection
     * check, so its bytes land right after this returns.
     */
    virtual void onWatchedAccess(Addr pa, u64 len, bool write) = 0;
};

/**
 * Bus traffic counters. Scalar accesses count one load/store each;
 * bulk operations (readBytes/writeBytes/copy/set) count one load
 * and/or store per page-sized chunk they touch — i.e. per bus access
 * performed — with the byte volume in bytesCopied. A bulk op fully
 * inside one page therefore counts exactly like a scalar access.
 */
struct BusStats
{
    u64 loads = 0;
    u64 stores = 0;
    u64 bytesCopied = 0;
    u64 machineChecks = 0;
    u64 protectionFaults = 0;
};

class MemBus
{
  public:
    MemBus(PhysMem &mem, PageTable &pt, Tlb &tlb, Cpu &cpu,
           SimClock &clock, const CostModel &costs);

    /** @{ Scalar accesses (little-endian, naturally aligned). */
    u8 load8(Addr va);
    u16 load16(Addr va);
    u32 load32(Addr va);
    u64 load64(Addr va);
    void store8(Addr va, u8 value);
    void store16(Addr va, u16 value);
    void store32(Addr va, u32 value);
    void store64(Addr va, u64 value);
    /** @} */

    /** Bulk read; charges copy cost. */
    void readBytes(Addr va, std::span<u8> out);

    /** Bulk write; charges copy cost and patch checks. */
    void writeBytes(Addr va, std::span<const u8> in);

    /** Memory-to-memory copy within simulated memory. */
    void copy(Addr dst, Addr src, u64 n);

    /** Fill @p n bytes at @p dst with @p value. */
    void set(Addr dst, u8 value, u64 n);

    /**
     * Translate @p va for a read or write access.
     *
     * A TLB hit whose PTE passes every check (valid, writable for a
     * store, frame inside physical memory) is served inline with the
     * same hit charge as the out-of-line translateMapped(), which
     * handles TLB misses and raises every fault.
     *
     * @throws CrashException on machine check or protection fault.
     */
    Addr
    translate(Addr va, bool write)
    {
        Addr mapped = va;
        if (isKsegAddr(va)) {
            mapped = ksegToPhys(va);
            if (!cpu_.mapKsegThroughTlb()) {
                if (mapped >= mem_.size()) [[unlikely]]
                    machineCheck(va);
                return mapped; // TLB bypass: no protection possible.
            }
        }
        if (const Pte *pte = tlb_.lookup(mapped >> kPageShift)) {
            const Addr pa =
                (pte->pfn << kPageShift) | (mapped & (kPageSize - 1));
            if (pte->valid && (!write || pte->writable) &&
                pa < mem_.size()) {
                tlb_.noteHit();
                return pa;
            }
        }
        return translateMapped(mapped, write, va);
    }

    /** Enable/disable the code-patching store checks. */
    void setCodePatching(bool on) { codePatching_ = on; }
    bool codePatching() const { return codePatching_; }

    void setPolicy(ProtectionPolicy *policy) { policy_ = policy; }

    /**
     * Arm @p watch over the pages @p loads marks for loads and those
     * @p stores marks for stores (the marks must outlive the arming).
     * An access outside a window costs one compare, as does every
     * access while the watch is disarmed.
     */
    void armWatch(AccessWatch &watch, AccessWatch::Window loads,
                  AccessWatch::Window stores);
    void disarmWatch();
    AccessWatch *watch() { return watch_; }

    /**
     * A device is about to write [pa, pa + len) behind the bus (DMA):
     * it bypasses protection, but not the watch.
     */
    void noteDeviceWrite(Addr pa, u64 len);

    /**
     * Does [pa, pa + len) touch a page watched for stores? The fault
     * models' host writes assert not.
     */
    bool watches(Addr pa, u64 len) const;

    /** Attach/detach the dynamic store audit (RIO_AUDIT). */
    void setAudit(StoreAudit *audit) { audit_ = audit; }
    StoreAudit *audit() { return audit_; }

    const BusStats &stats() const { return stats_; }
    void resetStats() { stats_ = BusStats{}; }

    PhysMem &mem() { return mem_; }

  private:
    friend class Machine;

    /** Kernel-side time, dilated under code patching. */
    SimNs kernelNs(SimNs ns) const;

    [[noreturn]] void machineCheck(Addr va);
    [[noreturn]] void protectionFault(Addr va);
    Addr translateMapped(Addr va, bool write, Addr orig);
    void patchCheck(Addr pa, u64 store_count);
    void auditStore(Addr pa, u64 len);

    /** Call the armed watch if @p window marks @p pa's page. */
    void
    checkWatch(const AccessWatch::Window &window, Addr pa, u64 len,
               bool write)
    {
        const u64 page = (pa >> kPageShift) - window.first;
        if (page < window.marks.size()) [[unlikely]] {
            if (window.marks[page] != 0)
                watch_->onWatchedAccess(pa, len, write);
        }
    }
    void
    checkLoad(Addr pa, u64 len)
    {
        checkWatch(loadWatch_, pa, len, false);
    }
    void
    checkStore(Addr pa, u64 len)
    {
        checkWatch(storeWatch_, pa, len, true);
    }

    PhysMem &mem_;
    PageTable &pt_;
    Tlb &tlb_;
    Cpu &cpu_;
    SimClock &clock_;
    const CostModel &costs_;
    ProtectionPolicy *policy_ = nullptr;
    StoreAudit *audit_ = nullptr;
    /** The armed watch; both windows are empty while disarmed. */
    AccessWatch *watch_ = nullptr;
    AccessWatch::Window loadWatch_;
    AccessWatch::Window storeWatch_;
    /** CheckedStore events, after the bytes land (wired by Machine;
     *  independent of the audit: both see every store). */
    EventHook hook_;
    bool codePatching_ = false;
    BusStats stats_;
};

} // namespace rio::sim

#endif // RIO_SIM_MEMBUS_HH
