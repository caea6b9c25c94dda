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
 * Knobs: the campaign's (campaignConfigFromEnv), among them
 * RIO_T1_CRASHES, RIO_T1_WINDOW_S, RIO_T1_JOBS, RIO_T1_JSON and
 * RIO_SEED; defaults and help in knobTable() (harness/hconfig.cc).
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "harness/crashcampaign.hh"
#include "harness/pool.hh"
#include "harness/sink.hh"
#include "sim/crash.hh"
#include "support/json.hh"

int
main()
{
    using namespace rio;

    const harness::CampaignConfig config =
        harness::campaignConfigFromEnv();
    const std::string dir = config.jsonDir.empty() ? "." : config.jsonDir;
    harness::CrashCampaign campaign(config);

    std::printf("Table 1: Comparing Disk and Memory Reliability\n");
    std::printf("(corruptions per cell over %u trials; blank = "
                "none)\n",
                config.crashesPerCell);
    std::printf("workers: %u\n\n",
                harness::resolveJobs(config.jobs));

    // Say so before a long campaign, not only when writing fails.
    if (!std::filesystem::is_directory(dir)) {
        std::fprintf(stderr,
                     "table1_reliability: RIO_T1_JSON=%s is not a "
                     "directory; structured output will not be written\n",
                     dir.c_str());
    }

    std::vector<harness::TrialRecord> records;
    harness::CampaignStats stats;
    const harness::CampaignResult result =
        campaign.runAll(&records, &stats);

    std::fputs(
        harness::CrashCampaign::renderTable1(result, config).c_str(),
        stdout);

    std::printf("\ncrash causes observed:\n");
    for (int cause = 0; cause < 6; ++cause) {
        std::printf("  %-18s %llu\n",
                    sim::crashCauseName(static_cast<sim::CrashCause>(cause)),
                    static_cast<unsigned long long>(
                        result.crashCauseCounts[cause]));
    }

    std::printf("\nthroughput: %llu trials (%llu runs) in %.1f s "
                "with %u workers = %.2f trials/s\n",
                static_cast<unsigned long long>(stats.trials),
                static_cast<unsigned long long>(stats.attempts),
                stats.wallSeconds, stats.jobs,
                stats.trialsPerSecond());

    support::writeJsonFile(dir + "/table1.json",
                           harness::campaignToJson(result, config, &stats));
    std::string jsonl;
    for (const harness::TrialRecord &record : records)
        jsonl += harness::trialToJson(record) + '\n';
    support::writeJsonFile(dir + "/trials.jsonl", jsonl);

    std::printf(
        "\nPaper reference: disk 7 of 650 (1.1%%); Rio w/o protection "
        "10 of 650 (1.5%%);\nRio w/ protection 4 of 650 (0.6%%); 8 "
        "protection-mechanism saves.\n");
    return 0;
}
