/**
 * @file
 * Exhaustive crash-point enumeration (harness/crashmc): replay a
 * bounded deterministic workload once per recorded crash-relevant
 * event, crashing exactly at event k, and require the full recovery
 * pipeline to pass at every k. The crash campaign samples; this
 * binary proves the small cases by checking 100% of the points.
 *
 * Emits one JSON object per crash point to `<dir>/crashmc.jsonl` and
 * a machine-readable summary (with minimal repro records for every
 * failing point — the corpus-test pipeline input) to
 * `<dir>/crashmc.json`.
 *
 * Exit status is the number of unrecovered points (clamped to 125),
 * so CI can gate on "zero holes" directly. Weakened arms for
 * counterexample harvesting: RIO_MC_HARDENED=0 restores with
 * RestorePolicy::trusting(); RIO_MC_SHADOW=0 disables registry
 * shadow pages.
 *
 * Knobs: RIO_SEED and the RIO_MC_* family (crashMcConfigFromEnv, plus
 * RIO_MC_WORKLOAD and RIO_MC_JSON read here); defaults and help in
 * knobTable() (harness/hconfig.cc).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/crashmc.hh"
#include "harness/pool.hh"

int
main()
{
    using namespace rio;

    const harness::CrashMcConfig config = harness::crashMcConfigFromEnv();
    harness::CrashMc checker(config);

    const std::string which =
        harness::envStr("RIO_MC_WORKLOAD", "all");
    std::vector<std::string> names;
    std::istringstream list(which);
    for (std::string name; std::getline(list, name, ',');)
        names.push_back(name);
    // One pass over the enum: selected workloads run in enum order,
    // and whatever name is left over matched no workload.
    std::vector<harness::McWorkloadKind> kinds;
    for (u32 i = 0; i < harness::kMcNumWorkloads; ++i) {
        const auto kind = static_cast<harness::McWorkloadKind>(i);
        if (std::erase(names, harness::mcWorkloadName(kind)) > 0 ||
            which == "all")
            kinds.push_back(kind);
    }
    if (which != "all" && (kinds.empty() || !names.empty())) {
        std::fprintf(stderr,
                     "crashmc: unknown RIO_MC_WORKLOAD \"%s\" (want a "
                     "comma-separated list of shadow-flip, journal, "
                     "journal-writeback, journal-ordered, journal-data; "
                     "or all)\n",
                     which.c_str());
        return 125;
    }

    std::printf("crashmc: exhaustive crash-point enumeration\n");
    std::printf("workers: %u\n\n", harness::resolveJobs(config.jobs));

    const harness::McResult result = checker.runAll(kinds);

    std::fputs(harness::mcRenderSummary(result, config).c_str(),
               stdout);

    const std::string dir = harness::envStr("RIO_MC_JSON", ".");
    const std::string jsonlPath = dir + "/crashmc.jsonl";
    const std::string jsonPath = dir + "/crashmc.json";

    std::ofstream jsonl(jsonlPath);
    for (const harness::McWorkloadResult &workload : result.workloads)
        for (const harness::McPointRecord &point : workload.points)
            jsonl << harness::mcPointToJson(point) << '\n';
    jsonl.close();
    if (jsonl.fail())
        std::fprintf(stderr, "crashmc: failed writing %s\n",
                     jsonlPath.c_str());
    else
        std::printf("wrote %s\n", jsonlPath.c_str());

    std::ofstream json(jsonPath);
    json << harness::mcSummaryToJson(result, config);
    json.close();
    if (json.fail())
        std::fprintf(stderr, "crashmc: failed writing %s\n",
                     jsonPath.c_str());
    else
        std::printf("wrote %s\n", jsonPath.c_str());

    const u64 holes = result.totalUnrecovered();
    if (holes != 0) {
        std::printf("\n%llu unrecovered crash point%s — see the FAIL "
                    "lines above and %s\n",
                    static_cast<unsigned long long>(holes),
                    holes == 1 ? "" : "s", jsonlPath.c_str());
    } else {
        std::printf("\nall crash points recovered\n");
    }
    return holes > 125 ? 125 : static_cast<int>(holes);
}
