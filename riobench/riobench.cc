/**
 * @file
 * riobench: one benchmark for the Rio reproduction. Runs one workload
 * (see workloads.hh) per process, single-threaded, and reports its
 * end-to-end metrics (untraced run) or its per-layer metrics (traced
 * run) together with the correctness verdict.
 *
 *   riobench --workload <name> [--seed N] [--seconds S]
 *            [--trace TRACE.json] [--results RESULTS.json]
 *   riobench --smoke [--trace-dir DIR]
 *
 * --seconds sizes the run: the amount of work is a fixed function of
 * it (calibrated so a run lasts about that long on the reference
 * host), never of elapsed time, so every simulated result is a
 * function of the seed alone. --trace records bench-side spans and
 * writes them as a Chrome trace (loadable in Perfetto); --results
 * writes everything as JSON. riobench/run.py wraps this binary.
 *
 * --smoke runs every workload at a tiny scale twice, untraced and
 * traced, and fails unless every audit is clean and every simulated
 * result is identical in the two runs (tracing must never perturb the
 * simulation).
 *
 * Exit status: 0 correct, 1 wrong output, 2 the run itself failed (a
 * crash of the simulated system the workload did not plan, or any
 * other exception).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "emit_bench.hh"
#include "sim/crash.hh"
#include "workloads.hh"

using namespace rio;
using namespace rio::riobench;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: riobench --workload NAME [--seed N] "
                 "[--seconds S] [--trace FILE] [--results FILE]\n"
                 "       riobench --smoke [--trace-dir DIR]\n"
                 "workloads:");
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

benchio::JsonObject
metricsJson(const std::vector<Metric> &metrics)
{
    benchio::JsonObject obj;
    for (const Metric &metric : metrics) {
        benchio::JsonObject entry;
        entry.put("value", metric.value);
        entry.put("unit", metric.unit);
        obj.put(metric.name, entry);
    }
    return obj;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    for (const Metric &metric : metrics)
        std::printf("  %s %-48s %.6g %s\n", title, metric.name.c_str(),
                    metric.value, metric.unit.c_str());
}

/** Run one workload; a failure of the run itself is reported, never
 *  allowed to reach std::terminate. */
bool
runOnce(const RunOptions &options, RunResult &result)
{
    try {
        result = runWorkload(options);
        return true;
    } catch (const sim::CrashException &crash) {
        std::fprintf(stderr,
                     "riobench: %s failed: unplanned crash of the "
                     "simulated system: %s\n",
                     options.workload.c_str(), crash.what());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "riobench: %s failed: %s\n",
                     options.workload.c_str(), error.what());
    }
    return false;
}

int
runSmoke(const std::string &traceDir)
{
    if (!traceDir.empty()) {
        std::error_code error;
        std::filesystem::create_directories(traceDir, error);
    }
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        RunOptions options;
        options.workload = name;
        options.smoke = true;
        RunResult plain;
        RunResult traced;
        if (!runOnce(options, plain))
            return 2;
        options.trace = true;
        if (!traceDir.empty())
            options.tracePath = traceDir + "/" + name + ".trace.json";
        if (!runOnce(options, traced))
            return 2;

        bool same = plain.simMetrics.size() == traced.simMetrics.size();
        for (std::size_t i = 0; same && i < plain.simMetrics.size(); ++i) {
            const Metric &a = plain.simMetrics[i];
            const Metric &b = traced.simMetrics[i];
            if (a.name != b.name || a.value != b.value) {
                std::printf("smoke %s: %s = %.17g untraced, %.17g "
                            "traced\n",
                            name.c_str(), a.name.c_str(), a.value,
                            b.value);
                same = false;
            }
        }
        const bool good = plain.correct && traced.correct && same &&
                          !traced.perLayer.empty();
        std::printf("smoke %-14s %s: %zu simulated results %s, checks "
                    "%s, %llu ops\n",
                    name.c_str(), good ? "ok" : "FAILED",
                    plain.simMetrics.size(),
                    same ? "identical traced/untraced" : "DIFFER",
                    plain.correct && traced.correct ? "passed" : "FAILED",
                    static_cast<unsigned long long>(plain.attempted));
        for (const std::string &problem : plain.problems)
            std::printf("  problem: %s\n", problem.c_str());
        for (const std::string &problem : traced.problems)
            std::printf("  problem (traced): %s\n", problem.c_str());
        ok &= good;
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string resultsPath;
    std::string traceDir;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--workload" && hasValue) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && hasValue) {
            options.trace = true;
            options.tracePath = argv[++i];
        } else if (arg == "--results" && hasValue) {
            resultsPath = argv[++i];
        } else if (arg == "--trace-dir" && hasValue) {
            traceDir = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (smoke)
        return runSmoke(traceDir);
    if (options.workload.empty() || !(options.seconds > 0)) {
        usage();
        return 2;
    }

    RunResult result;
    if (!runOnce(options, result))
        return 2;

    std::printf("riobench %s seed %llu: %s, %llu attempted, %llu "
                "failed\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                result.correct ? "correct" : "WRONG",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (const std::string &problem : result.problems)
        std::printf("  problem: %s\n", problem.c_str());
    const std::vector<Metric> &metrics =
        options.trace ? result.perLayer : result.endToEnd;
    printMetrics(options.trace ? "layer" : "e2e", metrics);

    if (!resultsPath.empty()) {
        benchio::JsonObject problems;
        for (std::size_t i = 0; i < result.problems.size(); ++i)
            problems.put(std::to_string(i), result.problems[i]);
        benchio::JsonObject sims;
        for (const Metric &metric : result.simMetrics)
            sims.put(metric.name, metric.value);
        benchio::JsonObject body;
        body.put("workload", options.workload);
        body.put("seed", options.seed);
        body.put("seconds", options.seconds);
        body.put("traced", options.trace);
        body.put("correct", result.correct);
        body.put("attempted", result.attempted);
        body.put("failed", result.failed);
        body.put("problems", problems);
        body.put("metrics", metricsJson(metrics));
        body.put("sim", sims);
        body.put("detail", result.detail);
        if (!benchio::writeBenchFile(resultsPath, "riobench", 1, body))
            return 2;
    }
    return result.correct ? 0 : 1;
}
