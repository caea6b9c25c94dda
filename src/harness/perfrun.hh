/**
 * @file
 * The Table 2 experiment: run cp+rm, Sdet (5 scripts) and Andrew on
 * each of the paper's eight system configurations and report elapsed
 * simulated time. Checksums and other detection instrumentation are
 * off, as in the paper's performance measurements.
 */

#ifndef RIO_HARNESS_PERFRUN_HH
#define RIO_HARNESS_PERFRUN_HH

#include <array>
#include <string>
#include <vector>

#include "harness/hconfig.hh"
#include "os/kconfig.hh"

namespace rio::harness
{

struct PerfRow
{
    os::SystemPreset preset{};
    double cprmCopySeconds = 0;
    double cprmRmSeconds = 0;
    double sdetSeconds = 0;
    double andrewSeconds = 0;

    double
    cprmTotal() const
    {
        return cprmCopySeconds + cprmRmSeconds;
    }
};

/** Plain values; table2_performance reads its knobs via
 *  perfConfigFromEnv. */
struct PerfConfig
{
    u64 seed = 1;
    /** cp+rm source tree size (paper: 40 MB). */
    u64 cprmBytes = 40ull << 20;
    u32 sdetScripts = 5;
    /** Andrew scale: number of source files. */
    u32 andrewFiles = 50;
    bool verbose = false;
    /** Worker threads for the preset sweep; 0 = all hardware
     *  threads. Each preset row is an independent machine, so the
     *  sweep fans out the same way the crash campaign does. */
    u32 jobs = 0;
};

class PerfRun
{
  public:
    explicit PerfRun(const PerfConfig &config);

    PerfRow runPreset(os::SystemPreset preset);
    std::vector<PerfRow> runAll();

    /** Render in the paper's Table 2 shape. */
    static std::string renderTable2(const std::vector<PerfRow> &rows);

  private:
    PerfConfig config_;
};

} // namespace rio::harness

#endif // RIO_HARNESS_PERFRUN_HH
