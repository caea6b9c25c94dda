/**
 * @file
 * The riobench workloads. Each drives the public APIs of os::Kernel /
 * os::Vfs, core::WarmReboot and harness::CrashCampaign from outside,
 * as one closed-loop client on one thread, and returns its end-to-end
 * metrics (measured untraced), its per-layer metrics (read from the
 * layers' public stats and from bench-side spans, meaningful in a
 * traced run) and the correctness verdict.
 *
 *   mail_rio       the bench_server stream on RioProtected, every
 *                  mail/save fsync'd; data fits every cache.
 *   mail_journal   the same stream on JournalOrdered with 4096 docs
 *                  and a 512 KiB buffer pool: every fsync commits.
 *   crash_recover  mail_rio in cycles, each ending in a KernelPanic
 *                  and a warm reboot; every fsync'd write must survive.
 *   campaign       the Table 1 grid (3 systems x 13 faults), one
 *                  CrashCampaign::runOne per fault-injection attempt.
 */

#ifndef RIO_RIOBENCH_WORKLOADS_HH
#define RIO_RIOBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "emit_bench.hh"
#include "support/types.hh"

namespace rio::riobench
{

struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    /** Host seconds of work to size the run for (see workloads.cc). */
    double seconds = 15;
    /** Record spans; required for the per-layer metrics. */
    bool trace = false;
    /** Chrome trace output of a traced run ("" = none). */
    std::string tracePath;
    /** Tiny machines and op counts for the smoke test. */
    bool smoke = false;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct RunResult
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    /** Why correct is false, one line each. */
    std::vector<std::string> problems;
    std::vector<Metric> endToEnd;
    /** Filled by traced runs only. */
    std::vector<Metric> perLayer;
    /** Simulated-time results (counts, sim ns): a function of the
     *  seed and scale only, so traced and untraced runs must agree. */
    std::vector<Metric> simMetrics;
    /** Sizes, raw layer counters and span aggregates. */
    benchio::JsonObject detail;
};

const std::vector<std::string> &workloadNames();

/**
 * Run one workload. Throws (sim::CrashException, std::exception) when
 * the simulated system or the harness fails in a way the workload
 * does not expect — the caller reports that as a failed run.
 */
RunResult runWorkload(const RunOptions &options);

} // namespace rio::riobench

#endif // RIO_RIOBENCH_WORKLOADS_HH
