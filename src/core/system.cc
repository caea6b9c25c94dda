#include "core/system.hh"

namespace rio::core
{

System::System(sim::Machine &machine, const os::KernelConfig &config,
               const RioOptions &rio)
    : machine_(machine), config_(config), rioOptions_(rio)
{
    rioOptions_.protection = config_.protection;
    rioOptions_.nvBacked = config_.rioNvMirror;
}

void
System::boot(bool format)
{
    if (config_.rio)
        rio_ = std::make_unique<RioSystem>(machine_, rioOptions_);
    kernel_ = std::make_unique<os::Kernel>(machine_, config_);
    if (rio_)
        rio_->bindNvLock(kernel_->locks());
    kernel_->boot(rio_.get(), format);
}

void
System::teardown()
{
    rio_.reset();
    kernel_.reset();
    machine_.reset(sim::ResetKind::Warm);
}

void
System::crash(const std::string &why)
{
    try {
        machine_.crash(sim::CrashCause::KernelPanic, why);
    } catch (const sim::CrashException &) {
    }
    teardown();
}

WarmRebootReport
System::recover(const RestorePolicy &policy)
{
    WarmRebootReport report = restoreMetadata(policy);
    boot(false);
    restoreData(report);
    return report;
}

WarmRebootReport
System::restoreMetadata(const RestorePolicy &policy)
{
    if (!config_.rio)
        return {};
    warm_ = std::make_unique<WarmReboot>(machine_, policy);
    warm_->setIoPolicy(config_.ioRetry);
    return warm_->dumpAndRestoreMetadata();
}

void
System::restoreData(WarmRebootReport &report)
{
    if (warm_)
        warm_->restoreData(kernel_->vfs(), report);
}

} // namespace rio::core
