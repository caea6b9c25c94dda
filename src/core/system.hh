/**
 * @file
 * System: the software stack of one simulated computer — the kernel,
 * plus Rio when the KernelConfig sets rio — and the one owner of the
 * order in which it boots, dies and warm-reboots (paper section 2.2):
 *
 *     System system(machine, config, {.maintainChecksums = true});
 *     system.boot(true);               // mkfs, mount
 *     ...                              // the machine crashes
 *     system.teardown();               // drop the dead OS, warm reset
 *     auto report = system.recover();  // dump, metadata, fsck, data
 *
 * recover() is restoreMetadata(), boot(false) and restoreData(); a
 * caller that acts between the steps (an oracle on the platter before
 * fsck, per-phase timing, a crash injected mid-recovery) calls them
 * itself. Without Rio the two restore steps do nothing, so recovery
 * is a boot: journal replay and fsck.
 */

#ifndef RIO_CORE_SYSTEM_HH
#define RIO_CORE_SYSTEM_HH

#include <memory>
#include <string>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "os/kernel.hh"

namespace rio::core
{

class System
{
  public:
    /** @p rio supplies Rio's own switches; its protection and
     *  nvBacked come from @p config (protection, rioNvMirror). */
    System(sim::Machine &machine, const os::KernelConfig &config,
           const RioOptions &rio = {});

    /** Build Rio (it forks no RNG stream) and then the kernel, bind
     *  the rio-nv mirror lock, and boot; mkfs first when @p format. */
    void boot(bool format);

    /** Drop Rio (its destructor lifts the protection) and the
     *  kernel, then warm-reset the machine. */
    void teardown();

    /** Panic the machine now, swallow the unwind, and teardown(). */
    void crash(const std::string &why);

    /** The whole warm reboot, after teardown(). */
    WarmRebootReport
    recover(const RestorePolicy &policy = RestorePolicy::hardened());

    /** Step 1: dump to swap and restore dirty metadata, with
     *  config.ioRetry as the recovery I/O policy. */
    WarmRebootReport
    restoreMetadata(const RestorePolicy &policy = RestorePolicy::hardened());

    /** Step 3, after boot(false): the user-level data restore. */
    void restoreData(WarmRebootReport &report);

    /** True between boot() and teardown(), where kernel() and vfs()
     *  are valid. */
    bool up() const { return kernel_ != nullptr; }
    os::Kernel &kernel() { return *kernel_; }
    os::Vfs &vfs() { return kernel_->vfs(); }
    /** The live Rio layer; nullptr without Rio or when torn down. */
    RioSystem *rio() { return rio_.get(); }
    /** The last restoreMetadata()'s warm reboot, or nullptr. */
    const WarmReboot *warmReboot() const { return warm_.get(); }

  private:
    sim::Machine &machine_;
    os::KernelConfig config_;
    RioOptions rioOptions_;
    std::unique_ptr<WarmReboot> warm_;
    std::unique_ptr<RioSystem> rio_;
    std::unique_ptr<os::Kernel> kernel_;
};

} // namespace rio::core

#endif // RIO_CORE_SYSTEM_HH
