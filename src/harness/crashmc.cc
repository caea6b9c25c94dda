#include "harness/crashmc.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "fault/postcrash.hh"
#include "harness/crashcampaign.hh"
#include "harness/oracle.hh"
#include "harness/pool.hh"
#include "os/journal.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"
#include "workload/script.hh"

namespace rio::harness
{

const char *
mcWorkloadName(McWorkloadKind kind)
{
    switch (kind) {
      case McWorkloadKind::ShadowFlip: return "shadow-flip";
      case McWorkloadKind::Journal: return "journal";
      case McWorkloadKind::JournalWriteback:
        return "journal-writeback";
      case McWorkloadKind::JournalOrdered: return "journal-ordered";
      case McWorkloadKind::JournalData: return "journal-data";
    }
    return "?";
}

const char *
mcEventClassName(McEventClass cls)
{
    switch (cls) {
      case McEventClass::BusStore: return "bus-store";
      case McEventClass::ProtoOpen: return "proto-open";
      case McEventClass::ProtoClose: return "proto-close";
      case McEventClass::ProtoShadowCopy: return "proto-shadow-copy";
      case McEventClass::ProtoFieldWrite: return "proto-field-write";
      case McEventClass::ProtoCommit: return "proto-commit";
      case McEventClass::DiskFlush: return "disk-flush";
      case McEventClass::NvMirrorWrite: return "nv-mirror-write";
      case McEventClass::JournalCommit: return "journal-commit";
      case McEventClass::JournalCheckpoint:
        return "journal-checkpoint";
    }
    return "?";
}

u32
mcWorkloadClassMask(McWorkloadKind kind)
{
    switch (kind) {
      case McWorkloadKind::ShadowFlip:
        return kMcAllClasses;
      case McWorkloadKind::Journal:
      case McWorkloadKind::JournalWriteback:
      case McWorkloadKind::JournalOrdered:
      case McWorkloadKind::JournalData:
        // Memory does not survive a non-Rio reboot: every platter
        // write, plus the protocol instants just before a commit
        // stages its log writes and before/after a checkpoint
        // rewrites home copies and advances the head.
        return mcClassBit(McEventClass::DiskFlush) |
               mcClassBit(McEventClass::JournalCommit) |
               mcClassBit(McEventClass::JournalCheckpoint);
    }
    return 0;
}

u64
McResult::totalUnrecovered() const
{
    u64 total = 0;
    for (const McWorkloadResult &workload : workloads)
        total += workload.unrecoveredPoints + workload.driftPoints;
    return total;
}

namespace
{

/** Sentinel crash index for the record pass: never fires. */
constexpr u64 kRecordPass = ~0ull;

os::SystemPreset
mcKernelPreset(McWorkloadKind kind)
{
    switch (kind) {
      case McWorkloadKind::ShadowFlip:
        return os::SystemPreset::RioNoProtection;
      case McWorkloadKind::Journal:
        return os::SystemPreset::AdvFsJournal;
      case McWorkloadKind::JournalWriteback:
        return os::SystemPreset::JournalWriteback;
      case McWorkloadKind::JournalOrdered:
        return os::SystemPreset::JournalOrdered;
      case McWorkloadKind::JournalData:
        return os::SystemPreset::JournalData;
    }
    return os::SystemPreset::AdvFsJournal;
}

/** Pure per-workload seed (splitmix64 chain; see crashcampaign.hh). */
constexpr u64
mcWorkloadSeed(const CrashMcConfig &config, McWorkloadKind kind)
{
    u64 s = mix64(config.seed ^ 0x43724d6343684bull); // "CrMcChK"
    return mix64(s ^ static_cast<u64>(kind));
}

/** Small machine: enough for the bounded workloads, fast to dump.
 *  Swap is one megabyte past memory so the full dump fits and the
 *  re-entrant reboot has room for its progress record. */
sim::MachineConfig
mcMachineConfig(u64 seed)
{
    sim::MachineConfig config;
    config.physMemBytes = 16ull << 20;
    config.kernelHeapBytes = 4ull << 20;
    config.bufPoolBytes = 1ull << 20;
    config.diskBytes = 32ull << 20;
    config.swapBytes = 17ull << 20;
    config.seed = seed;
    return config;
}

/** The class an event counts as; nullopt for kinds crashmc ignores. */
std::optional<McEventClass>
mcClassOf(sim::EventKind kind)
{
    switch (kind) {
      case sim::EventKind::CheckedStore: return McEventClass::BusStore;
      case sim::EventKind::DiskWrite: return McEventClass::DiskFlush;
      case sim::EventKind::NvWrite: return McEventClass::NvMirrorWrite;
      case sim::EventKind::RioOpenPage: return McEventClass::ProtoOpen;
      case sim::EventKind::RioClosePage: return McEventClass::ProtoClose;
      case sim::EventKind::RioShadowCopy:
        return McEventClass::ProtoShadowCopy;
      case sim::EventKind::RioFieldWrite:
        return McEventClass::ProtoFieldWrite;
      case sim::EventKind::RioCommit: return McEventClass::ProtoCommit;
      case sim::EventKind::JournalTxCommit:
        return McEventClass::JournalCommit;
      case sim::EventKind::JournalCheckpointWrite:
      case sim::EventKind::JournalCheckpointAdvance:
        return McEventClass::JournalCheckpoint;
      default: return std::nullopt;
    }
}

/** The event kinds that count as any class in @p classMask. */
u32
mcSubscriptionMask(u32 classMask)
{
    u32 mask = 0;
    for (u32 k = 0; k < sim::kNumEventKinds; ++k) {
        const auto kind = static_cast<sim::EventKind>(k);
        const auto cls = mcClassOf(kind);
        if (cls && (classMask & mcClassBit(*cls)) != 0)
            mask |= sim::eventBit(kind);
    }
    return mask;
}

/**
 * The recording/crashing surface, subscribed to the machine's event
 * hook for the workload's classes. In record mode (trace != nullptr)
 * it appends every event to the trace; in replay mode it counts and
 * crashes the machine exactly at event crashAt. Neither mode
 * advances simulated time or touches simulated state, which is what
 * keeps event k on the same instruction across runs.
 */
class McObserver final
{
  public:
    McObserver(sim::Machine &machine, u64 crashAt,
               std::vector<McEvent> *trace)
        : machine_(machine), crashAt_(crashAt), trace_(trace)
    {
        const auto &mem = machine.mem();
        const auto &reg = mem.region(sim::RegionKind::Registry);
        const auto &buf = mem.region(sim::RegionKind::BufPool);
        const auto &ubc = mem.region(sim::RegionKind::UbcPool);
        regBase_ = reg.base;
        regEnd_ = reg.end();
        bufBase_ = buf.base;
        bufEnd_ = buf.end();
        ubcBase_ = ubc.base;
        ubcEnd_ = ubc.end();
    }

    /** Only kinds mcClassOf maps are subscribed. */
    void
    onEvent(const sim::Event &event)
    {
        const McEventClass cls = *mcClassOf(event.kind);
        if (cls == McEventClass::BusStore && !tracked(event.a))
            return;
        note(cls, event.a);
    }

  private:
    bool
    tracked(Addr pa) const
    {
        return (pa >= regBase_ && pa < regEnd_) ||
               (pa >= bufBase_ && pa < bufEnd_) ||
               (pa >= ubcBase_ && pa < ubcEnd_);
    }

    void
    note(McEventClass cls, u64 addr)
    {
        // fired_ guards re-entry: noteCrash drains the disk queue,
        // whose applies would otherwise fire this observer again
        // while the crash is already in progress.
        if (fired_)
            return;
        if (trace_ != nullptr) {
            trace_->push_back({cls, addr});
            return;
        }
        if (count_++ == crashAt_) {
            fired_ = true;
            machine_.crash(sim::CrashCause::KernelPanic,
                           "crashmc: modeled outage");
        }
    }

    sim::Machine &machine_;
    u64 crashAt_;
    std::vector<McEvent> *trace_;
    Addr regBase_ = 0, regEnd_ = 0;
    Addr bufBase_ = 0, bufEnd_ = 0;
    Addr ubcBase_ = 0, ubcEnd_ = 0;
    u64 count_ = 0;
    bool fired_ = false;
};

/** Post-recovery structural floor: the volume supports fresh I/O and
 *  full traversal without tripping kernel consistency checks. */
bool
structuralCheck(os::Kernel &kernel)
{
    try {
        auto &vfs = kernel.vfs();
        os::Process proc(99);
        auto fd = vfs.open(proc, "/crashmc_fresh",
                           os::OpenFlags::writeOnly());
        if (!fd.ok())
            return false;
        std::vector<u8> data(4096, 0x5d);
        if (!vfs.write(proc, fd.value(), data).ok())
            return false;
        if (!vfs.close(proc, fd.value()).ok())
            return false;
        auto rfd = vfs.open(proc, "/crashmc_fresh",
                            os::OpenFlags::readOnly());
        if (!rfd.ok())
            return false;
        std::vector<u8> out(4096);
        if (!vfs.read(proc, rfd.value(), out).ok())
            return false;
        wl::tolerate(vfs.close(proc, rfd.value()));
        if (out != data)
            return false;

        auto top = vfs.readdir("/");
        if (!top.ok())
            return false;
        for (const auto &entry : top.value()) {
            if (entry.type != os::FileType::Dir)
                continue;
            auto sub = vfs.readdir("/" + entry.name);
            if (!sub.ok())
                continue;
            for (const auto &inner : sub.value())
                wl::tolerate(
                    vfs.stat("/" + entry.name + "/" + inner.name));
        }
        return true;
    } catch (const sim::CrashException &) {
        return false;
    }
}

/**
 * One full record-or-replay run. With @p trace non-null this is the
 * record pass: the workload runs to its op bound, every masked event
 * lands in the trace, and no crash is modeled. With @p trace null it
 * replays, crashes at event @p crashAt, runs recovery, and judges.
 */
McPointRecord
runReplay(const CrashMcConfig &config, McWorkloadKind kind,
          u64 crashAt, std::vector<McEvent> *trace)
{
    const bool isRio = kind == McWorkloadKind::ShadowFlip;
    const u64 seed = mcWorkloadSeed(config, kind);

    McPointRecord rec;
    rec.workload = static_cast<u32>(kind);
    rec.eventIndex = crashAt;
    rec.seed = config.seed;
    rec.pointSeed = mix64(seed ^ crashAt);

    sim::MachineConfig machineConfig = mcMachineConfig(seed);
    if (isRio && config.nvBacked)
        machineConfig.nvBytes = machineConfig.physMemBytes / 16;
    sim::Machine machine(machineConfig);
    os::KernelConfig kernelConfig =
        os::systemPreset(mcKernelPreset(kind));
    if (!isRio) {
        kernelConfig.journal.checksumCommit = config.journalChecksum;
        // Force checkpoints inside the bounded op window so their
        // boundaries are enumerable (the default is log-pressure
        // driven and a small workload never fills the log).
        kernelConfig.journal.checkpointEveryCommits = 2;
    }

    core::RioOptions options;
    std::unique_ptr<core::RioSystem> rio;
    if (isRio) {
        options.protection = kernelConfig.protection;
        options.maintainChecksums = true;
        options.shadowMetadata = config.shadowMetadata;
        options.nvBacked = isRio && config.nvBacked;
        rio = std::make_unique<core::RioSystem>(machine, options);
    }
    auto kernel = std::make_unique<os::Kernel>(machine, kernelConfig);
    if (rio)
        rio->bindNvLock(kernel->locks());
    kernel->boot(rio.get(), true);

    wl::MemTestConfig mtConfig;
    mtConfig.seed = seed * 17 + 3;
    mtConfig.fsyncEveryWrite = !isRio;
    mtConfig.maxFileSetBytes = 1ull << 20;
    mtConfig.maxFileBytes = 32 * 1024;
    mtConfig.maxFiles = 24;
    mtConfig.numDirs = 3;
    mtConfig.duplicatePairs = 2;
    mtConfig.duplicateBytes = 8 * 1024;
    wl::MemTest memtest(*kernel, mtConfig);
    memtest.setup();

    // Durable baseline: flush setup wholesale so every enumerated
    // event belongs to the bounded op window, and so the Journal
    // oracle starts from a disk that already holds the skeleton.
    kernel->vfs().sync();
    machine.disk().drain(machine.clock());

    wl::Scheduler scheduler;
    scheduler.add(memtest);
    scheduler.setBetweenSteps(
        [&] { return memtest.opsCompleted() < config.ops; });

    // Events only count while subscribed: boot, setup and recovery
    // stay outside the enumerated window.
    McObserver observer(machine, crashAt, trace);
    {
        const auto subscription = machine.subscribe(
            [&observer](const sim::Event &event) {
                observer.onEvent(event);
            },
            mcSubscriptionMask(mcWorkloadClassMask(kind)));
        try {
            scheduler.run();
        } catch (const sim::CrashException &crash) {
            machine.noteCrash(crash.when());
            rec.crashed = true;
        }
    }

    rec.opsCompleted = memtest.opsCompleted();

    if (trace != nullptr)
        return rec; // Record pass: nothing to judge.

    if (!rec.crashed) {
        rec.failure = "trace drift: crash point never reached";
        return rec;
    }

    // --- Recovery. -------------------------------------------------
    if (isRio) {
        rio->deactivate();
        rio.reset();
    }
    kernel.reset();
    machine.reset(sim::ResetKind::Warm);

    if (!isRio && config.tornCommit) {
        // Model the torn-commit window the strict-FIFO sim disk
        // cannot reorder into existence: scramble one committed
        // transaction's payload on the platter while its commit
        // record survives. Only the commit checksum stands between
        // this and replaying garbage into home blocks.
        fault::PostCrashConfig tear;
        tear.flipRegistryBits = false;
        tear.smashMagics = false;
        tear.crossLinkClaims = false;
        tear.crossLinkPages = false;
        tear.smashPageBytes = false;
        tear.smashShadows = false;
        tear.zeroTail = false;
        tear.nvBitDecay = false;
        tear.nvTornLines = false;
        tear.nvSmashMirror = false;
        tear.jrnTearCommit = true;
        tear.jrnStaleSeq = false;
        tear.jrnSmashDescriptor = false;
        fault::PostCrashCorruptor corruptor(
            machine, support::Rng(rec.pointSeed), tear);
        corruptor.corrupt();
    }

    const core::RestorePolicy policy =
        config.hardened ? core::RestorePolicy::hardened()
                        : core::RestorePolicy::trusting();

    std::unique_ptr<core::WarmReboot> warm;
    core::WarmRebootReport warmReport;
    std::unique_ptr<core::RioSystem> rio2;
    if (isRio) {
        const auto capture = captureRecoveryOracle(machine, policy);
        warm = std::make_unique<core::WarmReboot>(machine, policy);
        warm->setIoPolicy(kernelConfig.ioRetry);
        warmReport = warm->dumpAndRestoreMetadata();
        const auto verdict =
            checkRecoveryOracle(machine, capture, warmReport);
        rec.oracleOk = verdict.ok();
        rec.metadataRestored = warmReport.metadataRestored;
        rec.metadataFromShadow = warmReport.metadataFromShadow;
        rec.metadataFromPhysFallback =
            warmReport.metadataFromPhysFallback;
        rec.metadataQuarantined =
            warmReport.recovery.metadataQuarantined;
        rec.metadataUnrestorable = warmReport.metadataUnrestorable;
        rio2 = std::make_unique<core::RioSystem>(machine, options);
    }

    auto rebooted =
        std::make_unique<os::Kernel>(machine, kernelConfig);
    if (rio2)
        rio2->bindNvLock(rebooted->locks());
    try {
        rebooted->boot(rio2 ? rio2.get() : nullptr, false);
    } catch (const sim::CrashException &crash) {
        rec.failure =
            std::string("recovered volume failed to boot: ") +
            crash.what();
        return rec;
    }
    if (isRio)
        warm->restoreData(rebooted->vfs(), warmReport);

    // --- Judgement. ------------------------------------------------
    wl::MemTest::VerifyResult verify;
    bool verifierCrashed = false;
    try {
        verify = memtest.verify(*rebooted);
    } catch (const sim::CrashException &crash) {
        verifierCrashed = true;
        rec.failure =
            std::string("verifier tripped kernel checks: ") +
            crash.what();
    }
    rec.corruptFiles = verify.missingFiles + verify.sizeMismatches +
                       verify.contentMismatches + verify.extraFiles +
                       verify.duplicateMismatches;

    const bool structural =
        !verifierCrashed && structuralCheck(*rebooted);

    if (isRio) {
        // Rio's promise covers memory contents: every completed
        // operation survives, judged by the full replay comparison.
        rec.recovered = rec.oracleOk && structural &&
                        !verifierCrashed && !verify.corrupt() &&
                        !memtest.liveMismatchSeen();
        if (!rec.recovered && rec.failure.empty()) {
            if (!rec.oracleOk)
                rec.failure = "oracle: known-bad metadata reached "
                              "disk or accounting leaked";
            else if (verify.corrupt())
                rec.failure = "memTest verify: completed operations "
                              "lost or corrupted";
            else
                rec.failure =
                    "structural check failed on recovered volume";
        }
    } else {
        // The journal promises crash *consistency*, not durability
        // of un-fsynced metadata ops: gate on the volume surviving
        // (replayed journal boots, traversal and fresh I/O work,
        // nothing unreadable); the replay-comparison counts are
        // recorded in the point for inspection.
        rec.recovered = structural && !verifierCrashed &&
                        verify.readErrors == 0;
        if (!rec.recovered && rec.failure.empty()) {
            rec.failure =
                verify.readErrors > 0
                    ? "journal recovery left unreadable files"
                    : "structural check failed on replayed volume";
        }
    }
    return rec;
}

} // namespace

CrashMc::CrashMc(const CrashMcConfig &config) : config_(config) {}

std::vector<McEvent>
CrashMc::record(McWorkloadKind kind)
{
    std::vector<McEvent> trace;
    runReplay(config_, kind, kRecordPass, &trace);
    return trace;
}

McPointRecord
CrashMc::runPoint(McWorkloadKind kind, u64 k,
                  const std::vector<McEvent> &trace)
{
    McPointRecord rec = runReplay(config_, kind, k, nullptr);
    if (k < trace.size()) {
        rec.eventClass = static_cast<u32>(trace[k].cls);
        rec.eventAddr = trace[k].addr;
    }
    return rec;
}

McWorkloadResult
CrashMc::runWorkload(McWorkloadKind kind)
{
    McWorkloadResult result;
    result.kind = kind;

    const std::vector<McEvent> trace = record(kind);
    result.totalEvents = trace.size();
    for (const McEvent &event : trace)
        ++result.perClass[static_cast<u32>(event.cls)];

    result.points.resize(trace.size());
    WorkerPool pool(resolveJobs(config_.jobs));
    std::atomic<u64> done{0};
    parallelFor(pool, trace.size(), [&](u64 k) {
        result.points[k] = runPoint(kind, k, trace);
        const u64 n = done.fetch_add(1) + 1;
        if (config_.progress &&
            (n % 16 == 0 || n == trace.size())) {
            std::fprintf(
                stderr, "\rcrashmc %s: %llu/%llu points",
                mcWorkloadName(kind),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(trace.size()));
        }
    });
    if (config_.progress)
        std::fprintf(stderr, "\n");

    for (const McPointRecord &point : result.points) {
        ++result.pointsRun;
        if (point.recovered)
            ++result.recoveredPoints;
        else if (!point.crashed)
            ++result.driftPoints;
        else
            ++result.unrecoveredPoints;
    }
    return result;
}

McResult
CrashMc::runAll(const std::vector<McWorkloadKind> &kinds)
{
    McResult result;
    for (const McWorkloadKind kind : kinds)
        result.workloads.push_back(runWorkload(kind));
    return result;
}

} // namespace rio::harness
