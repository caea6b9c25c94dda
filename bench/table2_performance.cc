/**
 * @file
 * Regenerates Table 2 of the paper: cp+rm, Sdet (5 scripts) and
 * Andrew runtimes across the eight file-system configurations, plus
 * the ratio analysis quoted in the abstract (Rio vs write-through,
 * vs default UFS, vs delay-everything UFS).
 *
 * Knobs: RIO_PERF_MB, RIO_SEED, RIO_T1_JOBS and RIO_VERBOSE
 * (perfConfigFromEnv); defaults and help in knobTable()
 * (harness/hconfig.cc).
 */

#include <cstdio>

#include "harness/perfrun.hh"
#include "harness/pool.hh"
#include "harness/report.hh"

int
main()
{
    using namespace rio;

    const harness::PerfConfig config = harness::perfConfigFromEnv();
    harness::PerfRun perf(config);

    std::printf("Table 2: Performance Comparison (simulated seconds)\n");
    std::printf("cp+rm tree size: %llu MB; workers: %u\n\n",
                static_cast<unsigned long long>(config.cprmBytes >> 20),
                harness::resolveJobs(config.jobs));

    const std::vector<harness::PerfRow> rows = perf.runAll();
    std::fputs(harness::PerfRun::renderTable2(rows).c_str(), stdout);

    auto rowOf = [&](os::SystemPreset preset) -> const harness::PerfRow & {
        for (const auto &row : rows) {
            if (row.preset == preset)
                return row;
        }
        return rows.front();
    };

    const auto &rio = rowOf(os::SystemPreset::RioProtected);
    const auto &wtw = rowOf(os::SystemPreset::UfsWriteThroughWrite);
    const auto &wtc = rowOf(os::SystemPreset::UfsWriteThroughClose);
    const auto &ufs = rowOf(os::SystemPreset::UfsDefault);
    const auto &delay = rowOf(os::SystemPreset::UfsDelayAll);
    const auto &mfs = rowOf(os::SystemPreset::MemoryFs);

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    std::printf("\nSpeedups of Rio (with protection):\n");
    std::printf("  vs write-through-on-write : %sx / %sx / %sx "
                "(cp+rm / Sdet / Andrew)   [paper: 4-22x]\n",
                harness::fmt(ratio(wtw.cprmTotal(), rio.cprmTotal()))
                    .c_str(),
                harness::fmt(ratio(wtw.sdetSeconds, rio.sdetSeconds))
                    .c_str(),
                harness::fmt(
                    ratio(wtw.andrewSeconds, rio.andrewSeconds))
                    .c_str());
    std::printf("  vs write-through-on-close : %sx / %sx / %sx\n",
                harness::fmt(ratio(wtc.cprmTotal(), rio.cprmTotal()))
                    .c_str(),
                harness::fmt(ratio(wtc.sdetSeconds, rio.sdetSeconds))
                    .c_str(),
                harness::fmt(
                    ratio(wtc.andrewSeconds, rio.andrewSeconds))
                    .c_str());
    std::printf("  vs default UFS            : %sx / %sx / %sx "
                "  [paper: 2-14x]\n",
                harness::fmt(ratio(ufs.cprmTotal(), rio.cprmTotal()))
                    .c_str(),
                harness::fmt(ratio(ufs.sdetSeconds, rio.sdetSeconds))
                    .c_str(),
                harness::fmt(
                    ratio(ufs.andrewSeconds, rio.andrewSeconds))
                    .c_str());
    std::printf("  vs delayed data+metadata  : %sx / %sx / %sx "
                "  [paper: 1-3x]\n",
                harness::fmt(ratio(delay.cprmTotal(), rio.cprmTotal()))
                    .c_str(),
                harness::fmt(
                    ratio(delay.sdetSeconds, rio.sdetSeconds))
                    .c_str(),
                harness::fmt(
                    ratio(delay.andrewSeconds, rio.andrewSeconds))
                    .c_str());
    std::printf("  vs memory file system     : %sx / %sx / %sx "
                "  [paper: ~1x]\n",
                harness::fmt(ratio(rio.cprmTotal(), mfs.cprmTotal()))
                    .c_str(),
                harness::fmt(ratio(rio.sdetSeconds, mfs.sdetSeconds))
                    .c_str(),
                harness::fmt(
                    ratio(rio.andrewSeconds, mfs.andrewSeconds))
                    .c_str());

    std::printf(
        "\nPaper reference (DEC 3000/600): MFS 21/43/13; UFS-delay "
        "81/47/13; AdvFS 125/132/16;\nUFS 332/401/23; wt-close "
        "394/699/49; wt-write 539/910/178; Rio 25/42/13.\n");
    return 0;
}
