#include "harness/perfrun.hh"

#include <memory>

#include "core/system.hh"
#include "harness/pool.hh"
#include "harness/report.hh"
#include "sim/machine.hh"
#include "support/log.hh"
#include "workload/andrew.hh"
#include "workload/cprm.hh"
#include "workload/sdet.hh"

namespace rio::harness
{

namespace
{

/** Everything needed for one measured run. */
struct Bench
{
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<core::System> system;
};

Bench
bootPreset(os::SystemPreset preset, u64 seed, u64 cprmBytes)
{
    Bench bench;
    sim::MachineConfig machineConfig = perfMachineConfig(seed);
    // Scale the machine with the workload: the UBC must hold the
    // source tree plus the dirty copy, and the disk both trees.
    machineConfig.physMemBytes = support::roundUp(
        std::max<u64>(48ull << 20, cprmBytes * 5 / 2 + (32ull << 20)),
        sim::kPageSize);
    machineConfig.diskBytes =
        std::max<u64>(96ull << 20, cprmBytes * 4);
    machineConfig.swapBytes = machineConfig.physMemBytes;
    const os::KernelConfig config = os::systemPreset(preset);
    if (config.rioNvMirror)
        fitNvRegion(machineConfig);
    bench.machine = std::make_unique<sim::Machine>(machineConfig);
    // Rio's checksums stay off, as in the paper's runs.
    bench.system =
        std::make_unique<core::System>(*bench.machine, config);
    bench.system->boot(true);
    return bench;
}

} // namespace

PerfRun::PerfRun(const PerfConfig &config) : config_(config) {}

PerfRow
PerfRun::runPreset(os::SystemPreset preset)
{
    PerfRow row;
    row.preset = preset;

    // --- cp+rm ------------------------------------------------------
    {
        Bench bench = bootPreset(preset, config_.seed * 11 + 1, config_.cprmBytes);
        wl::CpRmConfig cprm;
        cprm.totalBytes = config_.cprmBytes;
        cprm.seed = config_.seed;
        wl::CpRm workload(bench.system->kernel(), cprm);
        workload.buildSourceTree();
        const wl::CpRmResult result = workload.run();
        row.cprmCopySeconds = result.copySeconds;
        row.cprmRmSeconds = result.rmSeconds;
    }

    // --- Sdet ---------------------------------------------------------
    {
        Bench bench = bootPreset(preset, config_.seed * 11 + 2, config_.cprmBytes);
        wl::SdetConfig sdet;
        sdet.seed = config_.seed;
        sdet.scripts = config_.sdetScripts;
        row.sdetSeconds = wl::runSdet(bench.system->kernel(), sdet);
    }

    // --- Andrew -------------------------------------------------------
    {
        Bench bench = bootPreset(preset, config_.seed * 11 + 3, config_.cprmBytes);
        wl::AndrewConfig andrew;
        andrew.seed = config_.seed;
        andrew.files = config_.andrewFiles;
        wl::Andrew workload(bench.system->kernel(), andrew);
        const double start = bench.machine->clock().seconds();
        while (workload.step()) {
        }
        row.andrewSeconds =
            bench.machine->clock().seconds() - start;
    }

    if (config_.verbose) {
        RIO_LOG_INFO << os::systemPresetName(preset) << ": cp+rm "
                     << row.cprmTotal() << "s, sdet "
                     << row.sdetSeconds << "s, andrew "
                     << row.andrewSeconds << "s";
    }
    return row;
}

std::vector<PerfRow>
PerfRun::runAll()
{
    static const os::SystemPreset kOrder[] = {
        os::SystemPreset::MemoryFs,
        os::SystemPreset::UfsDelayAll,
        os::SystemPreset::AdvFsJournal,
        os::SystemPreset::JournalWriteback,
        os::SystemPreset::JournalOrdered,
        os::SystemPreset::JournalData,
        os::SystemPreset::UfsDefault,
        os::SystemPreset::UfsWriteThroughClose,
        os::SystemPreset::UfsWriteThroughWrite,
        os::SystemPreset::RioNoProtection,
        os::SystemPreset::RioProtected,
        os::SystemPreset::RioNvProtected,
    };
    constexpr std::size_t kCount =
        sizeof(kOrder) / sizeof(kOrder[0]);
    // Each preset boots private machines; fan out and keep rows in
    // preset order so the rendered table is scheduling-independent.
    std::vector<PerfRow> rows(kCount);
    WorkerPool pool(resolveJobs(config_.jobs));
    parallelFor(pool, kCount,
                [&](u64 index) { rows[index] = runPreset(kOrder[index]); });
    return rows;
}

std::string
PerfRun::renderTable2(const std::vector<PerfRow> &rows)
{
    Table table({"System", "Data Permanent", "cp+rm (s)",
                 "Sdet (5 scripts) (s)", "Andrew (s)"});
    for (const PerfRow &row : rows) {
        table.addRow(
            {os::systemPresetName(row.preset),
             os::systemPresetPermanence(row.preset),
             fmt(row.cprmTotal(), 1) + " (" +
                 fmt(row.cprmCopySeconds, 1) + "+" +
                 fmt(row.cprmRmSeconds, 1) + ")",
             fmt(row.sdetSeconds, 1), fmt(row.andrewSeconds, 1)});
    }
    return table.render();
}

} // namespace rio::harness
