#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "harness/crashcampaign.hh"
#include "harness/hconfig.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"
#include "workload/modelfs.hh"
#include "workload/serverclient.hh"

#include "oploop.hh"
#include "spans.hh"

namespace rio::riobench
{

namespace
{

constexpr u64 kMiB = 1ull << 20;

/** Set-ups per run; setup_s is their median. */
constexpr u32 kSetupReps = 3;

double
toSeconds(u64 ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    // riolint:allow(R2) host memory high-water mark, reporting only.
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Layer counters ------------------------------------------------

/** Public layer stats, sampled around each op segment. */
enum Counter : std::size_t
{
    BusLoads,
    BusStores,
    TlbHits,
    TlbMisses,
    DiskReads,
    DiskWrites,
    DiskSectorsWritten,
    DiskBusyNs,
    BufHits,
    BufMisses,
    BufEvictions,
    BufDiskReads,
    BufSyncWrites,
    UbcHits,
    UbcMisses,
    UbcEvictions,
    UbcSpills,
    JournalCommits,
    JournalBlocks,
    JournalCheckpoints,
    RioRegistryUpdates,
    RioPageOpens,
    RioShadowCopies,
    Syscalls,
    SimTimeNs,
    kNumCounters,
};

constexpr std::array<const char *, kNumCounters> kCounterNames = {
    "bus_loads",        "bus_stores",        "tlb_hits",
    "tlb_misses",       "disk_reads",        "disk_writes",
    "disk_sectors_written", "disk_busy_ns",  "buf_hits",
    "buf_misses",       "buf_evictions",     "buf_disk_reads",
    "buf_sync_writes",  "ubc_hits",          "ubc_misses",
    "ubc_evictions",    "ubc_spills",        "journal_commits",
    "journal_blocks",   "journal_checkpoints",
    "rio_registry_updates", "rio_page_opens", "rio_shadow_copies",
    "syscalls",         "sim_ns",
};

using Counters = std::array<u64, kNumCounters>;

Counters
capture(sim::Machine &machine, os::Kernel &kernel,
        const core::RioSystem *rio)
{
    Counters c{};
    const auto &bus = machine.bus().stats();
    c[BusLoads] = bus.loads;
    c[BusStores] = bus.stores;
    c[TlbHits] = machine.tlb().hits();
    c[TlbMisses] = machine.tlb().misses();
    const auto &disk = machine.disk().stats();
    c[DiskReads] = disk.reads;
    c[DiskWrites] = disk.writes;
    c[DiskSectorsWritten] = disk.sectorsWritten;
    c[DiskBusyNs] = disk.busyNs;
    const auto &buf = kernel.bufferCache().stats();
    c[BufHits] = buf.hits;
    c[BufMisses] = buf.misses;
    c[BufEvictions] = buf.evictions;
    c[BufDiskReads] = buf.diskReads;
    c[BufSyncWrites] = buf.diskWritesSync;
    const auto &ubc = kernel.ubc().stats();
    c[UbcHits] = ubc.hits;
    c[UbcMisses] = ubc.misses;
    c[UbcEvictions] = ubc.evictions;
    c[UbcSpills] = ubc.spills;
    c[JournalCommits] = kernel.journal().transactionsCommitted();
    c[JournalBlocks] = kernel.journal().recordsWritten();
    c[JournalCheckpoints] = kernel.journal().checkpointsDone();
    if (rio != nullptr) {
        c[RioRegistryUpdates] = rio->stats().registryUpdates;
        c[RioPageOpens] = rio->stats().pageOpens;
        c[RioShadowCopies] = rio->stats().shadowCopies;
    }
    c[Syscalls] = kernel.vfs().syscallCount();
    c[SimTimeNs] = machine.clock().now();
    return c;
}

void
accumulate(Counters &total, const Counters &from, const Counters &to)
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        total[i] += to[i] - from[i];
}

/**
 * Host ns per checked store64 on a protected (KSEG-through-TLB)
 * machine: the MemBus translate() fast path every file-cache store
 * takes, isolated from the kernel.
 */
double
storeMicroNs(u64 ops)
{
    sim::MachineConfig config;
    config.physMemBytes = 16 * kMiB;
    config.diskBytes = 16 * kMiB;
    config.swapBytes = 16 * kMiB;
    sim::Machine machine(config);
    machine.pageTable().initIdentity();
    machine.cpu().setMapKsegThroughTlb(true);
    const Addr heap =
        machine.mem().region(sim::RegionKind::KernelHeap).base;
    const u64 start = hostNowNs();
    for (u64 i = 0; i < ops; ++i)
        machine.bus().store64(heap + ((i * 8) & (sim::kPageSize - 1)), i);
    return ratio(static_cast<double>(hostNowNs() - start),
                 static_cast<double>(ops));
}

// --- Per-layer metrics ---------------------------------------------

struct RecoveryTimes
{
    u64 simNs = 0;
    u64 hostNs = 0;
    u64 pagesRestored = 0;
    u64 checkpointWrites = 0;
};

struct CampaignSummary
{
    double trialsPerSec = 0;
    double attemptsPerTrial = 0;
    double discardHostShare = 0;
    double crashedHostP50 = 0;
    double discardedHostP50 = 0;
    double crashAfterSimP50 = 0;
    std::array<u64, 3> corruptTrials{};
    std::array<u64, 3> protectionSaves{};
    u64 uncrashedTrials = 0;
};

/** The Table 1 systems, in anchor/metric order. */
constexpr std::array<harness::SystemKind, 3> kCampaignSystems = {
    harness::SystemKind::DiskWriteThrough,
    harness::SystemKind::RioNoProtection,
    harness::SystemKind::RioWithProtection,
};
constexpr std::array<const char *, 3> kCampaignSystemNames = {
    "disk", "rio_no_protection", "rio_protected"};

/** Everything the per-layer metrics are computed from; a workload
 *  leaves what it does not exercise at zero. */
struct LayerInputs
{
    u64 ops = 0;
    Counters counters{};
    u64 userBytes = 0;
    const OpLatencies *latencies = nullptr;
    std::vector<RecoveryTimes> recoveries;
    double tracedOpsPerSec = 0;
    double storeNs = 0;
    CampaignSummary campaign;
};

double
spanP50(const Tracer &tracer, const char *name, bool sim, double scale)
{
    const Tracer::Aggregate *agg = tracer.find(name);
    if (agg == nullptr)
        return 0;
    return static_cast<double>(
               percentileOf(sim ? agg->simNs : agg->hostNs, 50)) /
           scale;
}

/**
 * The per-layer metric list, in BENCHMARK.json order. Every workload
 * reports every metric; a layer the workload does not reach reads 0.
 */
std::vector<Metric>
layerMetrics(const LayerInputs &in, const Tracer &tracer)
{
    std::vector<Metric> out;
    auto add = [&out](const std::string &name, double value,
                      const char *unit) {
        out.push_back({name, value, unit});
    };
    const Counters &c = in.counters;
    const double ops = static_cast<double>(in.ops);
    auto perOp = [&](Counter counter) {
        return ratio(static_cast<double>(c[counter]), ops);
    };
    auto us = [](u64 ns) { return static_cast<double>(ns) / 1e3; };

    const OpLatencies empty;
    const OpLatencies &lat = in.latencies ? *in.latencies : empty;
    add("op.count", static_cast<double>(lat.count()), "count");
    add("op.sim_us_p50", us(lat.percentile(50)), "us");
    add("op.sim_us_p999", us(lat.percentile(99.9)), "us");
    for (OpClass cls : {OpClass::Mail, OpClass::Save, OpClass::Read}) {
        const std::string prefix =
            std::string("op.") + opClassName(cls) + ".sim_us_";
        add(prefix + "p50", us(lat.percentile(cls, 50)), "us");
        add(prefix + "p999", us(lat.percentile(cls, 99.9)), "us");
    }
    add("trace.host_ops_per_s", in.tracedOpsPerSec, "1/s");

    add("sim.membus.loads_per_op", perOp(BusLoads), "1/op");
    add("sim.membus.stores_per_op", perOp(BusStores), "1/op");
    add("sim.membus.store_ns", in.storeNs, "ns");
    add("sim.tlb.miss_ratio",
        ratio(static_cast<double>(c[TlbMisses]),
              static_cast<double>(c[TlbHits] + c[TlbMisses])),
        "ratio");
    add("sim.disk.busy_share",
        ratio(static_cast<double>(c[DiskBusyNs]),
              static_cast<double>(c[SimTimeNs])),
        "ratio");
    add("sim.disk.writes_per_op", perOp(DiskWrites), "1/op");
    add("sim.disk.bytes_written_per_user_byte",
        ratio(static_cast<double>(c[DiskSectorsWritten] *
                                  sim::kSectorSize),
              static_cast<double>(in.userBytes)),
        "B/B");

    add("core.rio.registry_updates_per_op", perOp(RioRegistryUpdates),
        "1/op");
    add("core.rio.page_opens_per_op", perOp(RioPageOpens), "1/op");
    add("core.rio.shadow_copies_per_op", perOp(RioShadowCopies),
        "1/op");

    add("os.vfs.syscalls_per_op", perOp(Syscalls), "1/op");
    add("os.vfs.fsync_sim_us_p50",
        spanP50(tracer, "os.vfs.fsync", true, 1e3), "us");
    add("os.vfs.fsync_host_us_p50",
        spanP50(tracer, "os.vfs.fsync", false, 1e3), "us");

    add("os.journal.commits_per_op", perOp(JournalCommits), "1/op");
    add("os.journal.blocks_per_commit",
        ratio(static_cast<double>(c[JournalBlocks]),
              static_cast<double>(c[JournalCommits])),
        "1/commit");
    add("os.journal.checkpoints",
        static_cast<double>(c[JournalCheckpoints]), "count");
    add("os.journal.log_bytes_per_user_byte",
        ratio(static_cast<double>(c[JournalBlocks] * sim::kPageSize),
              static_cast<double>(in.userBytes)),
        "B/B");

    add("os.buf.lookups_per_op",
        ratio(static_cast<double>(c[BufHits] + c[BufMisses]), ops),
        "1/op");
    add("os.buf.hit_ratio",
        ratio(static_cast<double>(c[BufHits]),
              static_cast<double>(c[BufHits] + c[BufMisses])),
        "ratio");
    add("os.buf.evictions_per_op", perOp(BufEvictions), "1/op");
    add("os.buf.disk_reads_per_op", perOp(BufDiskReads), "1/op");
    add("os.buf.sync_writes_per_op", perOp(BufSyncWrites), "1/op");
    add("os.ubc.hit_ratio",
        ratio(static_cast<double>(c[UbcHits]),
              static_cast<double>(c[UbcHits] + c[UbcMisses])),
        "ratio");
    add("os.ubc.spills_per_op", perOp(UbcSpills), "1/op");
    add("os.ubc.evictions_per_op", perOp(UbcEvictions), "1/op");

    std::vector<double> recSim, recHost, pages, ckpts;
    double maxRecSim = 0;
    u64 totalPages = 0;
    for (const RecoveryTimes &rec : in.recoveries) {
        recSim.push_back(toSeconds(rec.simNs));
        recHost.push_back(toSeconds(rec.hostNs));
        pages.push_back(static_cast<double>(rec.pagesRestored));
        ckpts.push_back(static_cast<double>(rec.checkpointWrites));
        maxRecSim = std::max(maxRecSim, toSeconds(rec.simNs));
        totalPages += rec.pagesRestored;
    }
    add("recovery.sim_s", medianOf(recSim), "s");
    add("recovery.sim_s_max", maxRecSim, "s");
    add("recovery.host_s", medianOf(recHost), "s");
    add("core.warmreboot.dump_meta_sim_s",
        spanP50(tracer, "core.warmreboot.dump_meta", true, 1e9), "s");
    add("core.warmreboot.dump_meta_host_s",
        spanP50(tracer, "core.warmreboot.dump_meta", false, 1e9), "s");
    add("os.fsck.boot_sim_s",
        spanP50(tracer, "os.kernel.boot", true, 1e9), "s");
    add("os.fsck.boot_host_s",
        spanP50(tracer, "os.kernel.boot", false, 1e9), "s");
    add("core.warmreboot.restore_data_sim_s",
        spanP50(tracer, "core.warmreboot.restore_data", true, 1e9), "s");
    add("core.warmreboot.restore_data_host_s",
        spanP50(tracer, "core.warmreboot.restore_data", false, 1e9),
        "s");
    add("core.warmreboot.pages_restored", medianOf(pages), "count");
    add("core.warmreboot.checkpoint_writes", medianOf(ckpts), "count");
    const Tracer::Aggregate *restore =
        tracer.find("core.warmreboot.restore_data");
    add("core.warmreboot.sim_ms_per_page",
        restore ? ratio(static_cast<double>(restore->totalSimNs) / 1e6,
                        static_cast<double>(totalPages))
                : 0.0,
        "ms");
    add("audit.host_s", spanP50(tracer, "audit", false, 1e9), "s");

    const CampaignSummary &cs = in.campaign;
    const std::string camp = "harness.crashcampaign.";
    add(camp + "trials_per_s", cs.trialsPerSec, "1/s");
    add(camp + "attempts_per_trial", cs.attemptsPerTrial, "1/trial");
    add(camp + "discard_host_share", cs.discardHostShare, "ratio");
    add(camp + "attempt_host_s_p50.crashed", cs.crashedHostP50, "s");
    add(camp + "attempt_host_s_p50.discarded", cs.discardedHostP50, "s");
    add(camp + "crash_after_sim_s_p50", cs.crashAfterSimP50, "s");
    for (std::size_t s = 0; s < kCampaignSystems.size(); ++s) {
        add(camp + "corrupt_trials." + kCampaignSystemNames[s],
            static_cast<double>(cs.corruptTrials[s]), "count");
        add(camp + "protection_saves." + kCampaignSystemNames[s],
            static_cast<double>(cs.protectionSaves[s]), "count");
    }
    add(camp + "trials_uncrashed",
        static_cast<double>(cs.uncrashedTrials), "count");
    return out;
}

std::vector<Metric>
endToEndMetrics(const std::vector<double> &setupSeconds, double opsPerSec)
{
    return {
        {"setup_s", medianOf(setupSeconds), "s"},
        {"host_ops_per_s", opsPerSec, "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

benchio::JsonObject
countersJson(const Counters &c)
{
    benchio::JsonObject obj;
    for (std::size_t i = 0; i < kNumCounters; ++i)
        obj.put(kCounterNames[i], c[i]);
    return obj;
}

// --- Server workloads ----------------------------------------------

struct ServerSpec
{
    const char *name;
    os::SystemPreset preset;
    OpMix mix;
    u64 bufPoolBytes;
    /** Measured ops per requested second of run time, calibrated on
     *  the reference host so a run lasts about --seconds there. The
     *  op count is fixed by --seconds alone, never by elapsed time,
     *  so simulated results depend only on the seed and --seconds. */
    double opsPerSecond;
    /** Ops between planned crashes; 0 = one crash, after the last op. */
    u64 cycleOps;
};

/** Smoke-test scale: same code paths, tiny machine and op counts. */
constexpr u64 kSmokeOps = 1200;
constexpr u32 kSmokeDocs = 512;

// {name, preset, {mailboxes, docs}, buffer pool, ops/s, cycle ops}
const ServerSpec kMailRio{"mail_rio", os::SystemPreset::RioProtected,
                          {64, 256}, 2 * kMiB, 36000.0, 0};
const ServerSpec kMailJournal{"mail_journal",
                              os::SystemPreset::JournalOrdered,
                              {64, 4096}, kMiB / 2, 3600.0, 0};
const ServerSpec kCrashRecover{"crash_recover",
                               os::SystemPreset::RioProtected,
                               {64, 256}, 2 * kMiB, 25000.0, 25'000};

struct WorkingSet
{
    u64 fileBytes = 0;
    u64 ubcBytes = 0;
    u64 metadataBytes = 0;
    u64 bufPoolBytes = 0;

    benchio::JsonObject
    json() const
    {
        benchio::JsonObject obj;
        obj.put("file_bytes", fileBytes);
        obj.put("ubc_bytes", ubcBytes);
        obj.put("metadata_bytes", metadataBytes);
        obj.put("buf_pool_bytes", bufPoolBytes);
        return obj;
    }

    void
    print(const char *workload) const
    {
        auto mib = [](u64 bytes) {
            return static_cast<double>(bytes) / static_cast<double>(kMiB);
        };
        std::printf("%s working set: file data %.1f MiB vs UBC %.1f MiB "
                    "(%s); metadata %.2f MiB vs buffer pool %.2f MiB "
                    "(%s)\n",
                    workload, mib(fileBytes), mib(ubcBytes),
                    fileBytes <= ubcBytes ? "fits" : "exceeds",
                    mib(metadataBytes), mib(bufPoolBytes),
                    metadataBytes <= bufPoolBytes ? "fits" : "exceeds");
    }
};

OpMix
effectiveMix(const ServerSpec &spec, const RunOptions &options)
{
    OpMix mix = spec.mix;
    if (options.smoke)
        mix.docs = std::min(mix.docs, kSmokeDocs);
    return mix;
}

/** One booted, populated file server and its host-side oracle. */
class Server
{
  public:
    Server(const ServerSpec &spec, const RunOptions &options,
           Tracer &tracer)
        : mix_(effectiveMix(spec, options)), tracer_(tracer),
          machine_(machineConfig(spec, options)),
          kernelConfig_(os::systemPreset(spec.preset)),
          client_(clientConfig(mix_), OpStream::clientSeed(options.seed))
    {
        rioOptions_.protection = kernelConfig_.protection;
        if (kernelConfig_.rio)
            rio_ = std::make_unique<core::RioSystem>(machine_,
                                                     rioOptions_);
        kernel_ = std::make_unique<os::Kernel>(machine_, kernelConfig_);
        kernel_->boot(rio_.get(), true);
        client_.createDirs(*kernel_);
        // Every file exists before the first op, so zipf-tail reads
        // hit real documents; each write is fsync'd like the ops'.
        bool populated = true;
        for (u64 doc = 0; doc < mix_.docs; ++doc)
            populated &= execute({OpClass::Save, doc}, kNoOp);
        for (u64 box = 0; box < mix_.mailboxes; ++box)
            populated &= execute({OpClass::Mail, box}, kNoOp);
        if (!populated)
            throw std::runtime_error("populating the file server failed");
        userBytes_ = 0;
    }

    const OpMix &mix() const { return mix_; }
    sim::Machine &machine() { return machine_; }
    u64 userBytes() const { return userBytes_; }
    u64 readMismatches() const { return client_.readMismatches(); }

    Counters
    capture()
    {
        return riobench::capture(machine_, *kernel_, rio_.get());
    }

    /** One client request; mail and save are fsync'd on success. */
    bool
    execute(const OpStream::Op &op, u64 opId)
    {
        switch (op.cls) {
          case OpClass::Mail: {
            const std::string path =
                client_.mailboxPath(op.target % mix_.mailboxes);
            const u64 before = sizeOf(path);
            const bool ok =
                client_.deliverMail(*kernel_, model_, op.target);
            const u64 after = sizeOf(path);
            // A rotation truncated the mailbox before appending.
            userBytes_ += after >= before ? after - before : after;
            return ok && fsyncPath(path, opId);
          }
          case OpClass::Save: {
            const std::string path = client_.docPath(op.target % mix_.docs);
            const bool ok =
                client_.overwriteDoc(*kernel_, model_, op.target);
            userBytes_ += sizeOf(path);
            return ok && fsyncPath(path, opId);
          }
          case OpClass::Read:
            return client_.readDoc(*kernel_, model_, op.target);
        }
        return false;
    }

    /**
     * Crash with a kernel panic and bring the file system back: a
     * warm reboot (dump + metadata restore, boot, user-level data
     * restore) under Rio; journal replay + fsck at boot otherwise.
     */
    RecoveryTimes
    crashAndRecover(u64 crashNo)
    {
        try {
            machine_.crash(sim::CrashCause::KernelPanic,
                           "panic: riobench crash " +
                               std::to_string(crashNo));
        } catch (const sim::CrashException &) {
            // The planned crash; any other one propagates.
        }
        sim::SimClock &clock = machine_.clock();
        const u64 hostStart = hostNowNs();
        const SimNs simStart = clock.now();
        if (rio_) {
            rio_->deactivate();
            rio_.reset();
        }
        kernel_.reset();
        machine_.reset(sim::ResetKind::Warm);

        RecoveryTimes times;
        std::unique_ptr<core::WarmReboot> warm;
        core::WarmRebootReport report;
        if (kernelConfig_.rio) {
            warm = std::make_unique<core::WarmReboot>(machine_);
            Tracer::Scope span(tracer_, "core.warmreboot.dump_meta",
                               kNoOp, &clock);
            report = warm->dumpAndRestoreMetadata();
            rio_ = std::make_unique<core::RioSystem>(machine_,
                                                     rioOptions_);
        }
        kernel_ = std::make_unique<os::Kernel>(machine_, kernelConfig_);
        {
            Tracer::Scope span(tracer_, "os.kernel.boot", kNoOp, &clock);
            kernel_->boot(rio_.get(), false);
        }
        if (warm) {
            Tracer::Scope span(tracer_, "core.warmreboot.restore_data",
                               kNoOp, &clock);
            warm->restoreData(kernel_->vfs(), report);
            times.pagesRestored = report.dataPagesRestored;
            times.checkpointWrites = report.recovery.checkpointWrites;
        }
        times.simNs = clock.now() - simStart;
        times.hostNs = hostNowNs() - hostStart;
        return times;
    }

    wl::ServerClient::AuditResult
    audit()
    {
        Tracer::Scope span(tracer_, "audit", kNoOp, &machine_.clock());
        return client_.audit(*kernel_, model_);
    }

    /** File and metadata working sets next to the caches they use. */
    WorkingSet
    workingSet()
    {
        WorkingSet ws;
        for (const auto &[path, bytes] : model_.files())
            ws.fileBytes += bytes.size();
        // Metadata the ops touch: the files' inode-table blocks plus
        // the two directories' blocks.
        const u64 files = model_.files().size();
        ws.metadataBytes = (files + os::Ufs::kInodesPerBlock - 1) /
                           os::Ufs::kInodesPerBlock * os::Ufs::kBlockSize;
        for (const char *dir : {"/server/mail", "/server/docs"}) {
            auto st = kernel_->vfs().stat(dir);
            if (st.ok())
                ws.metadataBytes += st.value().size;
        }
        const auto &mem = machine_.mem();
        ws.ubcBytes = mem.region(sim::RegionKind::UbcPool).size;
        ws.bufPoolBytes = mem.region(sim::RegionKind::BufPool).size;
        return ws;
    }

  private:
    static sim::MachineConfig
    machineConfig(const ServerSpec &spec, const RunOptions &options)
    {
        sim::MachineConfig config =
            harness::perfMachineConfig(options.seed);
        if (options.smoke) {
            config.physMemBytes = 32 * kMiB;
            config.diskBytes = 64 * kMiB;
        }
        // The warm reboot's dump plus its progress checkpoint.
        config.swapBytes = config.physMemBytes + kMiB;
        config.bufPoolBytes = spec.bufPoolBytes;
        return config;
    }

    static wl::ServerClient::Config
    clientConfig(const OpMix &mix)
    {
        wl::ServerClient::Config config;
        config.mailboxes = mix.mailboxes;
        config.docs = mix.docs;
        config.mailboxRotateBytes = 256 * 1024;
        return config;
    }

    u64
    sizeOf(const std::string &path) const
    {
        const auto *bytes = model_.contents(path);
        return bytes != nullptr ? bytes->size() : 0;
    }

    /** Open, fsync, close; a span only for measured ops (opId set),
     *  so set-up fsyncs never enter the fsync metrics. */
    bool
    fsyncPath(const std::string &path, u64 opId)
    {
        if (opId == kNoOp)
            return fsyncNow(path);
        Tracer::Scope span(tracer_, "os.vfs.fsync", opId,
                           &machine_.clock());
        return fsyncNow(path);
    }

    bool
    fsyncNow(const std::string &path)
    {
        auto &vfs = kernel_->vfs();
        auto fd = vfs.open(fsyncProc_, path, os::OpenFlags::readOnly());
        if (!fd.ok())
            return false;
        const bool synced = vfs.fsync(fsyncProc_, fd.value()).ok();
        const bool closed = vfs.close(fsyncProc_, fd.value()).ok();
        return synced && closed;
    }

    const OpMix mix_;
    Tracer &tracer_;
    sim::Machine machine_;
    os::KernelConfig kernelConfig_;
    core::RioOptions rioOptions_;
    std::unique_ptr<core::RioSystem> rio_;
    std::unique_ptr<os::Kernel> kernel_;
    wl::ServerClient client_;
    wl::ModelFs model_;
    os::Process fsyncProc_{3};
    u64 userBytes_ = 0;
};

/** Write the Chrome trace of a traced run; a failed write fails the
 *  run like any other wrong output. */
void
finishTrace(const Tracer &tracer, const RunOptions &options,
            RunResult &result)
{
    if (!options.trace || options.tracePath.empty())
        return;
    if (!tracer.writeChromeTrace(options.tracePath)) {
        result.problems.push_back("could not write " + options.tracePath);
        result.correct = false;
    }
}

const char *
opSpanName(OpClass cls)
{
    switch (cls) {
      case OpClass::Mail: return "op.mail";
      case OpClass::Save: return "op.save";
      case OpClass::Read: return "op.read";
    }
    return "op";
}

RunResult
runServer(const ServerSpec &spec, const RunOptions &options)
{
    Tracer tracer(options.trace);
    RunResult result;

    // --- Set-up (boot + populate), repeated; setup_s is the median
    // and the last server serves the run. The previous one is freed
    // first so peak RSS is one machine, not several.
    std::vector<double> setupSeconds;
    std::unique_ptr<Server> server;
    const u32 reps = options.smoke ? 1 : kSetupReps;
    for (u32 rep = 0; rep < reps; ++rep) {
        server.reset();
        const u64 start = hostNowNs();
        {
            Tracer::Scope span(tracer, "setup", kNoOp, nullptr);
            server = std::make_unique<Server>(spec, options, tracer);
        }
        setupSeconds.push_back(toSeconds(hostNowNs() - start));
    }

    // --- Measured closed loop. ---------------------------------------
    const u64 cycleOps =
        spec.cycleOps == 0 ? 0
        : options.smoke    ? kSmokeOps / 2
                           : spec.cycleOps;
    u64 totalOps = options.smoke
                       ? kSmokeOps
                       : static_cast<u64>(std::llround(
                             options.seconds * spec.opsPerSecond));
    if (cycleOps != 0)
        totalOps = std::max<u64>(2, (totalOps + cycleOps / 2) / cycleOps) *
                   cycleOps;
    totalOps = std::max<u64>(totalOps, 1);

    OpStream stream(server->mix(), options.seed);
    OpLatencies latencies;
    OpWindows windows(totalOps, cycleOps != 0 ? totalOps / cycleOps
                                              : OpWindows::kWindows);
    Counters counters{};
    Counters segmentStart = server->capture();
    std::vector<RecoveryTimes> recoveries;
    u64 opsFailed = 0;
    u64 damaged = 0;
    u64 audited = 0;
    // In a cycle workload the crash and recovery are op time — a
    // server that crashes pays for its reboots — so each window is one
    // cycle. The audit is the benchmark's own check and never counts.
    auto crashCycle = [&] {
        accumulate(counters, segmentStart, server->capture());
        recoveries.push_back(server->crashAndRecover(recoveries.size() + 1));
        windows.pause();
        const auto audit = server->audit();
        damaged += audit.damaged;
        audited += audit.intact + audit.damaged;
        windows.resume();
        segmentStart = server->capture();
    };
    WorkingSet workingSet;
    windows.resume();
    for (u64 i = 0; i < totalOps; ++i) {
        const OpStream::Op op = stream.next();
        sim::SimClock &clock = server->machine().clock();
        const SimNs simStart = clock.now();
        bool ok;
        {
            Tracer::Scope span(tracer, opSpanName(op.cls), i, &clock);
            ok = server->execute(op, i);
        }
        latencies.record(op.cls, clock.now() - simStart);
        if (!ok)
            ++opsFailed;
        if (i + 1 == totalOps)
            workingSet = server->workingSet();
        if (cycleOps != 0 && (i + 1) % cycleOps == 0)
            crashCycle();
        windows.opDone(i);
    }
    workingSet.print(spec.name);
    if (cycleOps == 0)
        crashCycle(); // After the last window: not op time.

    const u64 mismatches = server->readMismatches();
    result.attempted = totalOps;
    result.failed = opsFailed + mismatches + damaged;
    if (opsFailed != 0)
        result.problems.push_back(std::to_string(opsFailed) +
                                  " ops did not succeed");
    if (mismatches != 0)
        result.problems.push_back(std::to_string(mismatches) +
                                  " reads returned the wrong bytes");
    if (damaged != 0)
        result.problems.push_back(std::to_string(damaged) +
                                  " files damaged after recovery");
    result.correct = result.problems.empty();

    result.endToEnd =
        endToEndMetrics(setupSeconds, windows.sustainedRate());
    if (options.trace) {
        LayerInputs in;
        in.ops = totalOps;
        in.counters = counters;
        in.userBytes = server->userBytes();
        in.latencies = &latencies;
        in.recoveries = recoveries;
        in.tracedOpsPerSec = windows.sustainedRate();
        in.storeNs = storeMicroNs(2'000'000);
        result.perLayer = layerMetrics(in, tracer);
    }

    // Simulated-time results: identical traced and untraced.
    auto simMetric = [&result](const std::string &name, u64 value) {
        result.simMetrics.push_back(
            {name, static_cast<double>(value), "sim"});
    };
    simMetric("op.count", latencies.count());
    for (const auto &[label, p] :
         {std::pair{"p50", 50.0}, std::pair{"p999", 99.9},
          std::pair{"p9999", 99.99}})
        simMetric(std::string("op.sim_ns_") + label,
                  latencies.percentile(p));
    for (std::size_t i = 0; i < kNumCounters; ++i)
        simMetric(kCounterNames[i], counters[i]);
    simMetric("user_bytes", server->userBytes());
    for (std::size_t r = 0; r < recoveries.size(); ++r)
        simMetric("recovery" + std::to_string(r) + ".sim_ns",
                  recoveries[r].simNs);
    simMetric("files_audited", audited);

    benchio::JsonObject config;
    config.put("preset", os::systemPresetName(spec.preset));
    config.put("mailboxes", static_cast<u64>(server->mix().mailboxes));
    config.put("docs", static_cast<u64>(server->mix().docs));
    config.put("ops", totalOps);
    config.put("cycle_ops", cycleOps);
    config.put("setup_reps", static_cast<u64>(reps));
    result.detail.put("config", config);
    result.detail.put("working_set", workingSet.json());
    benchio::JsonObject windowRates;
    const std::vector<double> rates = windows.rates();
    for (std::size_t w = 0; w < rates.size(); ++w)
        windowRates.put(std::to_string(w), rates[w]);
    result.detail.put("window_ops_per_s", windowRates);
    result.detail.put("counters", countersJson(counters));
    if (options.trace)
        result.detail.put("spans", tracer.aggregatesJson());
    finishTrace(tracer, options, result);
    return result;
}

// --- Table 1 campaign ----------------------------------------------

/** Fault-injection attempts per requested second of run time,
 *  calibrated like ServerSpec::opsPerSecond. */
constexpr double kCampaignAttemptsPerSecond = 3.2;
constexpr u64 kSmokeAttempts = 3;

/** Set-ups per campaign run: one is ~0.06 s, so take more. */
constexpr u32 kCampaignSetupReps = 9;

/**
 * Attempts per (system, {crashed, discarded}) over whole Table 1 grids
 * at seeds 1-5 (931 attempts). An attempt's host cost depends mostly
 * on its system and outcome — a disk-based attempt is cheap, a Rio
 * attempt that runs its whole observation window is ~10x dearer — so
 * the campaign's throughput is taken at this fixed mix: per-stratum
 * mean costs weighted by these counts. Otherwise which attempts
 * happen to crash under a given seed would move it more than any
 * change to the simulator.
 */
constexpr std::array<std::array<double, 2>, 3> kReferenceMix = {
    {{58, 339}, {62, 215}, {62, 195}}};

/** bench_campaign at RIO_BC_CRASHES=1, seed 1: {crashes, corrupt}. */
constexpr std::array<std::array<u64, 2>, 3> kSeed1Anchor = {
    {{12, 0}, {12, 1}, {13, 0}}};

/** The paper's Table 1 configuration, set field by field so no RIO_*
 *  environment variable can change what the benchmark measures. */
harness::CampaignConfig
campaignConfig(u64 seed)
{
    harness::CampaignConfig config;
    config.seed = seed;
    config.crashesPerCell = 1;
    config.observationNs = 10 * sim::kNsPerSec;
    config.verbose = false;
    config.jobs = 1;
    config.progress = false;
    config.jsonDir.clear();
    config.postCrashIntensity = 0.0;
    config.hardenedRecovery = true;
    config.rioIdleFlushNs = 0;
    config.diskFaultIntensity = 0.0;
    config.doubleCrashRate = 0.0;
    config.ioRetryEnabled = true;
    config.reentrantRecovery = true;
    config.lockdep = true;
    config.nvFaultIntensity = 0.0;
    config.powerCycleOps = 0;
    config.systems.assign(kCampaignSystems.begin(),
                          kCampaignSystems.end());
    config.faults = harness::CampaignConfig::allFaultTypes();
    return config;
}

/**
 * What every attempt sets up before its first fault: a crash-test
 * machine booted under protected Rio with memTest's file set in
 * place. Timed as the campaign's setup_s.
 */
void
campaignSetup(u64 seed)
{
    sim::Machine machine(harness::crashMachineConfig(seed));
    const os::KernelConfig kernelConfig =
        os::systemPreset(os::SystemPreset::RioProtected);
    core::RioOptions rioOptions;
    rioOptions.protection = kernelConfig.protection;
    rioOptions.maintainChecksums = true;
    core::RioSystem rio(machine, rioOptions);
    os::Kernel kernel(machine, kernelConfig);
    kernel.boot(&rio, true);
    wl::MemTestConfig memtestConfig;
    memtestConfig.seed = seed * 17 + 3;
    wl::MemTest memtest(kernel, memtestConfig);
    memtest.setup();
}

bool
sameOutcome(const harness::CrashRunResult &a,
            const harness::CrashRunResult &b)
{
    return a.crashed == b.crashed && a.discarded == b.discarded &&
           a.cause == b.cause && a.message == b.message &&
           a.crashAfterNs == b.crashAfterNs && a.corrupt == b.corrupt &&
           a.corruptFiles == b.corruptFiles &&
           a.protectionSaves == b.protectionSaves;
}

RunResult
runCampaign(const RunOptions &options)
{
    Tracer tracer(options.trace);
    RunResult result;
    const harness::CampaignConfig config = campaignConfig(options.seed);
    harness::CrashCampaign campaign(config);

    std::vector<double> setupSeconds;
    const u32 reps = options.smoke ? 1 : kCampaignSetupReps;
    for (u32 rep = 0; rep < reps; ++rep) {
        const u64 start = hostNowNs();
        {
            Tracer::Scope span(tracer, "setup", kNoOp, nullptr);
            campaignSetup(options.seed);
        }
        setupSeconds.push_back(toSeconds(hostNowNs() - start));
    }

    // One trial per (fault, system) cell, as runTrial runs it: attempt
    // n uses attemptSeed(trialSeed, n), a discard retries, a crash
    // ends the trial. Cells are visited breadth-first — every cell's
    // first attempt, then every uncrashed cell's second, ... — so a
    // run of any length samples all 39 cells evenly; each completed
    // trial is exactly the one runTrial would produce.
    struct Cell
    {
        std::size_t system = 0;
        fault::FaultType type{};
        u64 trialSeed = 0;
        u32 attempts = 0;
        bool done = false;
        bool crashed = false;
        u64 crashSeed = 0;
        harness::CrashRunResult run;
    };
    std::vector<Cell> cells;
    for (const fault::FaultType type : config.faults) {
        for (std::size_t s = 0; s < kCampaignSystems.size(); ++s) {
            Cell cell;
            cell.system = s;
            cell.type = type;
            cell.trialSeed = harness::trialSeed(
                config.seed, kCampaignSystems[s], type, 0);
            cells.push_back(cell);
        }
    }

    const u64 budget =
        options.smoke
            ? kSmokeAttempts
            : std::max<u64>(1, static_cast<u64>(std::llround(
                                   options.seconds *
                                   kCampaignAttemptsPerSecond)));
    u64 attempts = 0;
    u64 totalHostNs = 0;
    std::vector<u64> crashedHostNs;
    std::vector<u64> discardedHostNs;
    std::vector<u64> crashAfterNs;
    // Host ns and attempt count per (system, crashed = 0 / discarded = 1).
    std::array<std::array<u64, 2>, 3> stratumNs{};
    std::array<std::array<u64, 2>, 3> stratumCount{};
    u64 failed = 0;
    for (u32 round = 0;
         round < config.maxAttemptsPerCrash && attempts < budget; ++round) {
        for (Cell &cell : cells) {
            if (cell.done)
                continue;
            if (attempts == budget)
                break;
            const u64 seed = harness::attemptSeed(cell.trialSeed, round);
            ++cell.attempts;
            const u64 start = hostNowNs();
            harness::CrashRunResult run;
            bool threw = false;
            {
                Tracer::Scope span(tracer, "harness.crashcampaign.attempt",
                                   attempts, nullptr);
                try {
                    run = campaign.runOne(kCampaignSystems[cell.system],
                                          cell.type, seed);
                    span.setTag(run.discarded ? "discarded" : "crashed");
                } catch (const std::exception &e) {
                    threw = true;
                    result.problems.push_back(
                        std::string("attempt threw: ") + e.what());
                }
            }
            const u64 hostNs = hostNowNs() - start;
            ++attempts;
            totalHostNs += hostNs;
            if (threw) {
                ++failed;
                cell.done = true;
            } else if (run.discarded) {
                discardedHostNs.push_back(hostNs);
                stratumNs[cell.system][1] += hostNs;
                ++stratumCount[cell.system][1];
                cell.done = round + 1 == config.maxAttemptsPerCrash;
            } else {
                crashedHostNs.push_back(hostNs);
                crashAfterNs.push_back(run.crashAfterNs);
                stratumNs[cell.system][0] += hostNs;
                ++stratumCount[cell.system][0];
                cell.done = cell.crashed = true;
                cell.crashSeed = seed;
                cell.run = run;
            }
        }
    }

    // Outcome of every finished trial, per system.
    CampaignSummary summary;
    std::array<std::array<u64, 2>, 3> totals{};
    u64 trials = 0;
    u64 trialAttempts = 0;
    bool gridComplete = true;
    for (const Cell &cell : cells) {
        gridComplete &= cell.done;
        if (!cell.done)
            continue;
        ++trials;
        trialAttempts += cell.attempts;
        if (!cell.crashed) {
            ++summary.uncrashedTrials;
            continue;
        }
        ++totals[cell.system][0];
        if (cell.run.corrupt) {
            ++totals[cell.system][1];
            ++summary.corruptTrials[cell.system];
        }
        if (cell.run.protectionSaves > 0)
            ++summary.protectionSaves[cell.system];
    }

    // Correctness: attempts are pure functions of their seed, so the
    // first crashed one must replay identically; and a complete grid
    // at seed 1 must reproduce bench_campaign's corruption anchor.
    bool replayed = false;
    for (const Cell &cell : cells) {
        if (!cell.crashed)
            continue;
        const harness::CrashRunResult again = campaign.runOne(
            kCampaignSystems[cell.system], cell.type, cell.crashSeed);
        if (!sameOutcome(cell.run, again))
            result.problems.push_back(
                "a crashed attempt did not replay identically");
        replayed = true;
        break;
    }
    const bool anchorChecked =
        options.seed == 1 && gridComplete && failed == 0;
    if (anchorChecked && totals != kSeed1Anchor)
        result.problems.push_back(
            "seed-1 corruption anchor differs from bench_campaign");

    result.attempted = attempts;
    result.failed = failed;
    result.correct = result.problems.empty();
    // Mean attempt cost at the reference mix, over the strata this run
    // sampled.
    double mixCostNs = 0;
    double mixWeight = 0;
    for (std::size_t sys = 0; sys < 3; ++sys) {
        for (std::size_t outcome = 0; outcome < 2; ++outcome) {
            if (stratumCount[sys][outcome] == 0)
                continue;
            const double weight = kReferenceMix[sys][outcome];
            mixCostNs += weight *
                         static_cast<double>(stratumNs[sys][outcome]) /
                         static_cast<double>(stratumCount[sys][outcome]);
            mixWeight += weight;
        }
    }
    const double attemptsPerSec = ratio(mixWeight * 1e9, mixCostNs);
    result.endToEnd = endToEndMetrics(setupSeconds, attemptsPerSec);

    u64 discardNs = 0;
    for (const auto &outcomes : stratumNs)
        discardNs += outcomes[1];
    summary.trialsPerSec =
        ratio(static_cast<double>(trials), toSeconds(totalHostNs));
    summary.attemptsPerTrial = ratio(static_cast<double>(trialAttempts),
                                     static_cast<double>(trials));
    summary.discardHostShare = ratio(static_cast<double>(discardNs),
                                     static_cast<double>(totalHostNs));
    summary.crashedHostP50 = toSeconds(percentileOf(crashedHostNs, 50));
    summary.discardedHostP50 =
        toSeconds(percentileOf(discardedHostNs, 50));
    summary.crashAfterSimP50 = toSeconds(percentileOf(crashAfterNs, 50));
    if (options.trace) {
        LayerInputs in;
        in.tracedOpsPerSec = attemptsPerSec;
        in.storeNs = storeMicroNs(2'000'000);
        in.campaign = summary;
        result.perLayer = layerMetrics(in, tracer);
    }

    auto simMetric = [&result](const std::string &name, u64 value) {
        result.simMetrics.push_back(
            {name, static_cast<double>(value), "sim"});
    };
    simMetric("attempts", attempts);
    simMetric("trials", trials);
    for (std::size_t s = 0; s < kCampaignSystems.size(); ++s) {
        simMetric(std::string(kCampaignSystemNames[s]) + ".crashes",
                  totals[s][0]);
        simMetric(std::string(kCampaignSystemNames[s]) + ".corrupt",
                  totals[s][1]);
    }
    for (std::size_t i = 0; i < crashAfterNs.size(); ++i)
        simMetric("crash" + std::to_string(i) + ".after_ns",
                  crashAfterNs[i]);

    benchio::JsonObject cfg;
    cfg.put("attempt_budget", budget);
    cfg.put("setup_reps", static_cast<u64>(reps));
    cfg.put("cells", static_cast<u64>(cells.size()));
    result.detail.put("config", cfg);
    benchio::JsonObject anchor;
    for (std::size_t s = 0; s < kCampaignSystems.size(); ++s) {
        benchio::JsonObject row;
        row.put("crashes", totals[s][0]);
        row.put("corruptions", totals[s][1]);
        anchor.put(kCampaignSystemNames[s], row);
    }
    anchor.put("grid_complete", gridComplete);
    anchor.put("checked_against_seed1", anchorChecked);
    anchor.put("replay_checked", replayed);
    result.detail.put("corruption_anchor", anchor);
    if (options.trace)
        result.detail.put("spans", tracer.aggregatesJson());
    finishTrace(tracer, options, result);
    return result;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "mail_rio", "mail_journal", "crash_recover", "campaign"};
    return names;
}

RunResult
runWorkload(const RunOptions &options)
{
    if (options.workload == "mail_rio")
        return runServer(kMailRio, options);
    if (options.workload == "mail_journal")
        return runServer(kMailJournal, options);
    if (options.workload == "crash_recover")
        return runServer(kCrashRecover, options);
    if (options.workload == "campaign")
        return runCampaign(options);
    throw std::invalid_argument("unknown workload: " + options.workload);
}

} // namespace rio::riobench
