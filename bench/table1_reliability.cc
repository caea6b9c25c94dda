/**
 * @file
 * Regenerates Table 1 of the paper: corruption counts per fault type
 * for the disk-based write-through system, Rio without protection,
 * and Rio with protection.
 *
 * The campaign fans out over a worker pool (one task per trial, all
 * machines private) and is bit-identical at any thread count; this
 * binary also emits machine-readable results: per-trial records to
 * `<dir>/trials.jsonl` and a summary to `<dir>/table1.json`.
 *
 * Scale knobs (environment):
 *   RIO_T1_CRASHES   trials per cell (paper: 50 crashes)
 *   RIO_T1_WINDOW_S  observation window in simulated seconds
 *   RIO_T1_JOBS      worker threads (0 = all hardware threads)
 *   RIO_T1_JSON      output directory for JSON results (default ".")
 *   RIO_SEED         campaign seed
 */

#include <cstdio>
#include <fstream>

#include "harness/crashcampaign.hh"
#include "harness/pool.hh"
#include "harness/sink.hh"

int
main()
{
    using namespace rio;

    harness::CampaignConfig config;
    if (config.jsonDir.empty())
        config.jsonDir = ".";
    harness::CrashCampaign campaign(config);

    std::printf("Table 1: Comparing Disk and Memory Reliability\n");
    std::printf("(corruptions per cell over %u trials; blank = "
                "none)\n",
                config.crashesPerCell);
    std::printf("workers: %u\n\n",
                harness::resolveJobs(config.jobs));

    const std::string jsonlPath = config.jsonDir + "/trials.jsonl";
    const std::string jsonPath = config.jsonDir + "/table1.json";
    std::ofstream jsonl(jsonlPath);
    const bool jsonlOpened = static_cast<bool>(jsonl);
    if (!jsonlOpened) {
        std::fprintf(stderr,
                     "table1_reliability: cannot write %s "
                     "(RIO_T1_JSON=%s); structured output disabled\n",
                     jsonlPath.c_str(), config.jsonDir.c_str());
    }
    harness::JsonlSink sink(jsonl);

    harness::CampaignStats stats;
    const harness::CampaignResult result =
        campaign.runAll(&sink, &stats);
    jsonl.close();

    std::fputs(
        harness::CrashCampaign::renderTable1(result, config).c_str(),
        stdout);

    std::printf("\ncrash causes observed:\n");
    static const char *kCauseNames[] = {
        "machine check", "protection fault", "kernel panic",
        "consistency check", "watchdog timeout", "deadlock"};
    for (int cause = 0; cause < 6; ++cause) {
        std::printf("  %-18s %llu\n", kCauseNames[cause],
                    static_cast<unsigned long long>(
                        result.crashCauseCounts[cause]));
    }

    std::printf("\nthroughput: %llu trials (%llu runs) in %.1f s "
                "with %u workers = %.2f trials/s\n",
                static_cast<unsigned long long>(stats.trials),
                static_cast<unsigned long long>(stats.attempts),
                stats.wallSeconds, stats.jobs,
                stats.trialsPerSecond());

    std::ofstream json(jsonPath);
    json << harness::campaignToJson(result, config, &stats);
    json.close();
    if (json.fail()) {
        std::fprintf(stderr,
                     "table1_reliability: failed writing %s\n",
                     jsonPath.c_str());
    } else {
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    if (jsonlOpened && jsonl.good()) {
        std::printf("wrote %s\n", jsonlPath.c_str());
    } else if (jsonlOpened) {
        std::fprintf(stderr,
                     "table1_reliability: failed writing %s\n",
                     jsonlPath.c_str());
    }

    std::printf(
        "\nPaper reference: disk 7 of 650 (1.1%%); Rio w/o protection "
        "10 of 650 (1.5%%);\nRio w/ protection 4 of 650 (0.6%%); 8 "
        "protection-mechanism saves.\n");
    return 0;
}
