/**
 * @file
 * The simulated machine: physical memory, MMU (page table + TLB +
 * KSEG control), memory bus, data disk and swap disk, and the
 * simulated clock. The OS layer (os::Kernel) runs on top of this.
 *
 * A crash never kills the host process; it propagates as a
 * CrashException to the harness, which calls noteCrash() to apply the
 * hardware-level consequences (lost/torn disk queue entries) and then
 * reset() to reboot. Whether memory survives the reset is a property
 * of the platform (section 5: DEC Alphas preserve memory, the PCs the
 * authors tested do not).
 */

#ifndef RIO_SIM_MACHINE_HH
#define RIO_SIM_MACHINE_HH

#include <memory>

#include "sim/audit.hh"
#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/crash.hh"
#include "sim/disk.hh"
#include "sim/event.hh"
#include "sim/membus.hh"
#include "sim/nvregion.hh"
#include "sim/pagetable.hh"
#include "sim/physmem.hh"
#include "sim/tlb.hh"
#include "support/rng.hh"

namespace rio::sim
{

enum class ResetKind
{
    Warm, ///< Reset without clearing memory (if the platform allows).
    Cold  ///< Power-cycle: memory contents are lost.
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return config_; }

    SimClock &clock() { return clock_; }
    PhysMem &mem() { return mem_; }
    PageTable &pageTable() { return pageTable_; }
    Tlb &tlb() { return tlb_; }
    Cpu &cpu() { return cpu_; }
    MemBus &bus() { return bus_; }
    Disk &disk() { return disk_; }
    Disk &swap() { return swap_; }
    support::Rng &rng() { return rng_; }

    /**
     * The non-volatile memory region, or nullptr when the machine is
     * not fitted with one (MachineConfig::nvBytes == 0). Contents
     * persist across crash and both reset kinds.
     */
    NvRegion *nv() { return nv_.get(); }

    /**
     * The dynamic store audit, or nullptr when not enabled. Enabled
     * at construction in RIO_AUDIT builds; enableStoreAudit() turns
     * it on at run time in any build.
     */
    StoreAudit *audit() { return audit_.get(); }
    StoreAudit &enableStoreAudit();

    /** Detaches the event subscriber when it goes out of scope. */
    class [[nodiscard]] Subscription
    {
      public:
        Subscription(const Subscription &) = delete;
        Subscription &operator=(const Subscription &) = delete;
        ~Subscription() { machine_.detach(); }

      private:
        friend class Machine;
        explicit Subscription(Machine &machine) : machine_(machine) {}
        Machine &machine_;
    };

    /**
     * Attach the machine's one event subscriber (sim/event.hh) to
     * the kinds in @p mask. The bus, the data disk, the NV region and
     * every layer built on this Machine emit to it; the swap disk
     * never does. The returned guard detaches it, so a subscriber
     * never outlives its scope, even one a crash unwinds.
     * @throws std::logic_error if a subscriber is already attached.
     */
    Subscription subscribe(EventSubscriber subscriber,
                           u32 mask = kAllEvents);

    /** The hook layers above sim/ emit through. */
    const EventHook &events() const { return hook_; }

    /**
     * Crash the machine: apply disk-queue loss/tearing and raise the
     * exception that unwinds to the harness.
     */
    [[noreturn]] void crash(CrashCause cause, const std::string &msg);

    /** Bookkeeping when a CrashException from a component unwinds. */
    void noteCrash(SimNs when);

    /**
     * Firmware reset: flush TLB, reset CPU control state, scrub or
     * preserve memory depending on the platform and @p kind, charge
     * firmware boot time. The OS must then be re-booted on top.
     */
    void reset(ResetKind kind);

    bool crashed() const { return crashed_; }
    u64 crashCount() const { return crashCount_; }
    u64 lostQueuedWrites() const { return lostQueuedWrites_; }

  private:
    void wire(u32 mask);
    void detach();

    MachineConfig config_;
    SimClock clock_;
    support::Rng rng_;
    PhysMem mem_;
    PageTable pageTable_;
    Tlb tlb_;
    Cpu cpu_;
    MemBus bus_;
    Disk disk_;
    Disk swap_;
    std::unique_ptr<NvRegion> nv_;
    std::unique_ptr<StoreAudit> audit_;
    EventSubscriber subscriber_;
    EventHook hook_;
    bool crashed_ = false;
    u64 crashCount_ = 0;
    u64 lostQueuedWrites_ = 0;
};

} // namespace rio::sim

#endif // RIO_SIM_MACHINE_HH
