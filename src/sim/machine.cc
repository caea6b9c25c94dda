#include "sim/machine.hh"

#include <stdexcept>

namespace rio::sim
{

namespace
{

/** Firmware + self-test time charged for a reboot (simulated). */
constexpr SimNs kFirmwareBootNs = 30ull * kNsPerSec;

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config),
      rng_(config.seed),
      mem_(config),
      pageTable_(mem_),
      tlb_(),
      cpu_(),
      bus_(mem_, pageTable_, tlb_, cpu_, clock_, config_.costs),
      disk_(config.diskBytes, config_.costs, rng_.fork()),
      swap_(config.swapBytes, config_.costs, rng_.fork())
{
    if (config.requireSwapHoldsDump &&
        config.swapBytes < config.physMemBytes) {
        throw std::runtime_error(
            "Machine: swap partition cannot hold a memory dump");
    }
    if (config.nvBytes > 0) {
        if (config.nvBytes % kNvLineSize != 0) {
            throw std::runtime_error(
                "Machine: nvBytes must be a multiple of the NV line "
                "size");
        }
        nv_ = std::make_unique<NvRegion>(config.nvBytes, config_.costs);
    }
#ifdef RIO_AUDIT
    enableStoreAudit();
#endif
}

StoreAudit &
Machine::enableStoreAudit()
{
    if (!audit_) {
        audit_ = std::make_unique<StoreAudit>(mem_);
        bus_.setAudit(audit_.get());
    }
    return *audit_;
}

Machine::Subscription
Machine::subscribe(EventSubscriber subscriber, u32 mask)
{
    if (subscriber_) {
        throw std::logic_error(
            "Machine: an event subscriber is already attached");
    }
    subscriber_ = std::move(subscriber);
    wire(subscriber_ ? mask : 0);
    return Subscription(*this);
}

void
Machine::detach()
{
    wire(0);
    subscriber_ = nullptr;
}

void
Machine::wire(u32 mask)
{
    hook_.mask_ = mask;
    hook_.subscriber_ = &subscriber_;
    bus_.hook_ = hook_;
    disk_.hook_ = hook_;
    if (nv_)
        nv_->hook_ = hook_;
}

void
Machine::crash(CrashCause cause, const std::string &msg)
{
    noteCrash(clock_.now());
    throw CrashException(cause, msg, clock_.now());
}

void
Machine::noteCrash(SimNs when)
{
    if (crashed_)
        return; // Already accounted (crash during crash handling).
    crashed_ = true;
    ++crashCount_;
    lostQueuedWrites_ += disk_.crashDropQueue(when);
    lostQueuedWrites_ += swap_.crashDropQueue(when);
    if (nv_)
        nv_->onCrash(when); // NV persists; faults get their crash shot.
}

void
Machine::reset(ResetKind kind)
{
    tlb_.flushAll();
    cpu_.reset();
    if (kind == ResetKind::Cold || !config_.memorySurvivesReset) {
        mem_.zeroAll();
    } else {
        mem_.scribbleLow(config_.rebootScribbleBytes);
    }
    clock_.advance(kFirmwareBootNs);
    crashed_ = false;
    if (audit_)
        audit_->resetWindows(); // The write-window protocol restarts.
}

} // namespace rio::sim
