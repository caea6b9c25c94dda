/**
 * @file
 * Tests for the experiment harness: single crash-campaign runs on
 * each system, cell accounting, Table 1 rendering, the performance
 * runner on one preset, and the report formatter.
 */

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "harness/crashcampaign.hh"
#include "harness/crashmc.hh"
#include "harness/perfrun.hh"
#include "harness/report.hh"

using namespace rio;

TEST(Report, TableAlignsColumns)
{
    harness::Table table({"a", "long header", "x"});
    table.addRow({"1", "2", "3"});
    table.addSeparator();
    table.addRow({"wide cell", "", "9"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("| long header "), std::string::npos);
    EXPECT_NE(out.find("| wide cell "), std::string::npos);
    // Every line has the same length.
    std::size_t lineLen = out.find('\n');
    for (std::size_t pos = 0; pos < out.size();) {
        const std::size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, lineLen);
        pos = next + 1;
    }
}

TEST(Report, FmtRounds)
{
    EXPECT_EQ(harness::fmt(1.25, 1), "1.2");
    EXPECT_EQ(harness::fmt(1.0, 0), "1");
    EXPECT_EQ(harness::fmt(3.14159, 3), "3.142");
}

TEST(Campaign, RunOneOnEachSystemKind)
{
    harness::CampaignConfig config;
    config.crashesPerCell = 1;
    harness::CrashCampaign campaign(config);
    for (int system = 0; system < 3; ++system) {
        // Try a handful of seeds until one crashes.
        bool crashed = false;
        for (u64 seed = 1; seed <= 10 && !crashed; ++seed) {
            const auto run = campaign.runOne(
                static_cast<harness::SystemKind>(system),
                fault::FaultType::PointerCorruption, seed * 17);
            if (run.discarded)
                continue;
            crashed = true;
            EXPECT_TRUE(run.crashed);
            EXPECT_FALSE(run.message.empty());
        }
        EXPECT_TRUE(crashed);
    }
}

TEST(Campaign, RioRunReportsWarmRebootActivity)
{
    harness::CampaignConfig config;
    harness::CrashCampaign campaign(config);
    for (u64 seed = 1; seed <= 12; ++seed) {
        const auto run =
            campaign.runOne(harness::SystemKind::RioNoProtection,
                            fault::FaultType::DeleteBranch, seed * 31);
        if (run.discarded)
            continue;
        EXPECT_GT(run.warm.entriesSeen, 0u);
        return;
    }
    FAIL() << "no run crashed in 12 attempts";
}

TEST(Campaign, CellCollectsRequestedCrashes)
{
    harness::CampaignConfig config;
    config.crashesPerCell = 2;
    harness::CrashCampaign campaign(config);
    harness::CampaignResult result;
    const auto cell =
        campaign.runCell(harness::SystemKind::RioNoProtection,
                         fault::FaultType::BitFlipHeap, result);
    EXPECT_EQ(cell.crashes, 2u);
    EXPECT_GE(cell.attempts, cell.crashes);
    EXPECT_FALSE(result.uniqueErrorMessages.empty());
}

TEST(Campaign, Table1RendererShowsAllRows)
{
    harness::CampaignConfig config;
    harness::CampaignResult result;
    result.cells[1][10].crashes = 50;
    result.cells[1][10].corruptions = 4;
    const std::string out =
        harness::CrashCampaign::renderTable1(result, config);
    for (std::size_t type = 0; type < fault::kNumFaultTypes; ++type) {
        EXPECT_NE(out.find(fault::faultTypeName(
                      static_cast<fault::FaultType>(type))),
                  std::string::npos);
    }
    EXPECT_NE(out.find("4 of 50"), std::string::npos);
}

TEST(Perf, SinglePresetProducesPositiveTimes)
{
    harness::PerfConfig config;
    config.cprmBytes = 2ull << 20; // Keep the test fast.
    config.andrewFiles = 10;
    harness::PerfRun perf(config);
    const auto row = perf.runPreset(os::SystemPreset::RioProtected);
    EXPECT_GT(row.cprmCopySeconds, 0.0);
    EXPECT_GT(row.cprmRmSeconds, 0.0);
    EXPECT_GT(row.sdetSeconds, 0.0);
    EXPECT_GT(row.andrewSeconds, 0.0);
}

TEST(Perf, Table2RendererShowsSystems)
{
    std::vector<harness::PerfRow> rows(1);
    rows[0].preset = os::SystemPreset::RioProtected;
    rows[0].cprmCopySeconds = 18;
    rows[0].cprmRmSeconds = 7;
    rows[0].sdetSeconds = 42;
    rows[0].andrewSeconds = 13;
    const std::string out = harness::PerfRun::renderTable2(rows);
    EXPECT_NE(out.find("Rio with protection"), std::string::npos);
    EXPECT_NE(out.find("25.0 (18.0+7.0)"), std::string::npos);
}

TEST(Campaign, DiskSystemSkipsWarmReboot)
{
    harness::CampaignConfig config;
    harness::CrashCampaign campaign(config);
    for (u64 seed = 1; seed <= 12; ++seed) {
        const auto run =
            campaign.runOne(harness::SystemKind::DiskWriteThrough,
                            fault::FaultType::DeleteRandomInst,
                            seed * 41);
        if (run.discarded)
            continue;
        EXPECT_EQ(run.warm.entriesSeen, 0u);
        EXPECT_EQ(run.protectionSaves, 0u);
        return;
    }
    FAIL() << "no run crashed in 12 attempts";
}

namespace
{

/** Scoped setenv: restores the prior value (or unset) on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            hadOld_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }

    ~EnvGuard()
    {
        if (hadOld_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

} // namespace

TEST(EnvStrict, UnsetOrEmptyUsesFallbackEvenBelowMinimum)
{
    ::unsetenv("RIO_TEST_KNOB");
    EXPECT_EQ(harness::envU64("RIO_TEST_KNOB", 0, 1), 0u);
    EXPECT_EQ(harness::envU64("RIO_TEST_KNOB", 26, 1), 26u);
    EnvGuard guard("RIO_TEST_KNOB", "");
    EXPECT_EQ(harness::envU64("RIO_TEST_KNOB", 7, 1), 7u);
}

TEST(EnvStrict, CleanValueParses)
{
    EnvGuard guard("RIO_TEST_KNOB", "8");
    EXPECT_EQ(harness::envU64("RIO_TEST_KNOB", 1, 1), 8u);
}

TEST(EnvStrict, ExplicitZeroRejected)
{
    EnvGuard guard("RIO_TEST_KNOB", "0");
    EXPECT_THROW(harness::envU64("RIO_TEST_KNOB", 4, 1),
                 std::invalid_argument);
}

TEST(EnvStrict, GarbageRejectedLoudly)
{
    for (const char *bad : {"abc", "5x", "-1", "0x10", "1.5", "+", " 5",
                            "+5", "\t7"}) {
        EnvGuard guard("RIO_TEST_KNOB", bad);
        EXPECT_THROW(harness::envU64("RIO_TEST_KNOB", 4, 1),
                     std::invalid_argument)
            << "accepted garbage value \"" << bad << "\"";
    }
}

TEST(EnvStrict, ErrorMessageNamesKnobAndRemedy)
{
    EnvGuard guard("RIO_T1_JOBS", "banana");
    try {
        harness::envU64("RIO_T1_JOBS", 0, 1);
        FAIL() << "garbage RIO_T1_JOBS did not throw";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("RIO_T1_JOBS"), std::string::npos);
        EXPECT_NE(what.find("banana"), std::string::npos);
        EXPECT_NE(what.find("unset it for the default"),
                  std::string::npos);
    }
}

TEST(EnvStrict, U64WithoutMinimumStillRejectsGarbage)
{
    {
        EnvGuard guard("RIO_TEST_KNOB", "0");
        EXPECT_EQ(harness::envU64("RIO_TEST_KNOB", 4), 0u);
    }
    for (const char *bad :
         {"abc", "four", "5x", "-1", "1.5", " 5", "+5", "\t7"}) {
        EnvGuard guard("RIO_TEST_KNOB", bad);
        EXPECT_THROW(harness::envU64("RIO_TEST_KNOB", 4),
                     std::invalid_argument)
            << "accepted garbage value \"" << bad << "\"";
    }
    // The knobs that used to run a vacuous campaign or enumeration.
    {
        EnvGuard guard("RIO_T1_CRASHES", "abc");
        EXPECT_THROW(harness::campaignConfigFromEnv(),
                     std::invalid_argument);
    }
    {
        EnvGuard guard("RIO_MC_OPS", "four");
        EXPECT_THROW(harness::crashMcConfigFromEnv(),
                     std::invalid_argument);
    }
}

TEST(EnvStrict, BoolAcceptsOnlyZeroOrOne)
{
    {
        EnvGuard guard("RIO_TEST_KNOB", "0");
        EXPECT_FALSE(harness::envBool("RIO_TEST_KNOB", true));
    }
    {
        EnvGuard guard("RIO_TEST_KNOB", "1");
        EXPECT_TRUE(harness::envBool("RIO_TEST_KNOB", false));
    }
    for (const char *bad : {"false", "true", "no", "2", "01", " 1"}) {
        EnvGuard guard("RIO_TEST_KNOB", bad);
        EXPECT_THROW(harness::envBool("RIO_TEST_KNOB", true),
                     std::invalid_argument)
            << "accepted non-boolean value \"" << bad << "\"";
    }
    // "false" used to select the hardened arm it meant to turn off.
    EnvGuard guard("RIO_MC_HARDENED", "false");
    EXPECT_THROW(harness::crashMcConfigFromEnv(), std::invalid_argument);
}

TEST(EnvStrict, F64RejectsTrailingGarbageAndNonFinite)
{
    {
        EnvGuard guard("RIO_TEST_KNOB", "0.5");
        EXPECT_EQ(harness::envF64("RIO_TEST_KNOB", 1.0), 0.5);
    }
    for (const char *bad :
         {"abc", "1.0x", "0.5 ", "inf", "-inf", "nan", "1e999", " 0.5",
          "+0.5", "0x1p-1", "0x10"}) {
        EnvGuard guard("RIO_TEST_KNOB", bad);
        EXPECT_THROW(harness::envF64("RIO_TEST_KNOB", 1.0),
                     std::invalid_argument)
            << "accepted bad number \"" << bad << "\"";
    }
}

TEST(EnvStrict, F64RejectsValuesOutsideItsRange)
{
    // A negative intensity used to switch its stage off silently, and
    // a double-crash rate of 3 used to mean "always".
    for (const char *knob : {"RIO_T1_POSTCRASH", "RIO_DISKFAULT_INTENSITY",
                             "RIO_DISKFAULT_DOUBLECRASH", "RIO_NV_FAULT"}) {
        EnvGuard guard(knob, "-1");
        EXPECT_THROW(harness::campaignConfigFromEnv(), std::invalid_argument)
            << knob << "=-1 accepted";
    }
    {
        EnvGuard guard("RIO_DISKFAULT_DOUBLECRASH", "3");
        EXPECT_THROW(harness::campaignConfigFromEnv(), std::invalid_argument);
    }
    {
        EnvGuard guard("RIO_DISKFAULT_DOUBLECRASH", "1");
        EXPECT_EQ(harness::campaignConfigFromEnv().doubleCrashRate, 1.0);
    }
    {
        // envF64's default range starts at 0.
        EnvGuard guard("RIO_TEST_KNOB", "-0.5");
        EXPECT_THROW(harness::envF64("RIO_TEST_KNOB", 1.0),
                     std::invalid_argument);
    }
    EnvGuard guard("RIO_TEST_KNOB", "0");
    EXPECT_EQ(harness::envF64("RIO_TEST_KNOB", 1.0), 0.0);
}

TEST(EnvStrict, CampaignConfigRejectsZeroJobs)
{
    // RIO_T1_JOBS=0 must fail loudly at config construction instead
    // of silently running the campaign single-threaded (or worse).
    EnvGuard guard("RIO_T1_JOBS", "0");
    EXPECT_THROW(harness::campaignConfigFromEnv(), std::invalid_argument);
}

TEST(EnvStrict, CampaignConfigAcceptsUnsetJobs)
{
    ::unsetenv("RIO_T1_JOBS");
    const harness::CampaignConfig config =
        harness::campaignConfigFromEnv();
    EXPECT_EQ(config.jobs, 0u); // 0 = "use all hardware threads".
}

TEST(EnvStrict, NarrowedKnobsRejectValuesAboveU32)
{
    // 2^32 used to truncate to 0: RIO_T1_CRASHES=4294967296 ran a
    // 0-trial campaign and exited 0.
    for (const char *knob :
         {"RIO_T1_CRASHES", "RIO_T1_JOBS", "RIO_T1_POWERCYCLES"}) {
        EnvGuard guard(knob, "4294967296");
        EXPECT_THROW(harness::campaignConfigFromEnv(),
                     std::invalid_argument)
            << knob;
    }
    for (const char *knob : {"RIO_MC_OPS", "RIO_MC_JOBS"}) {
        EnvGuard guard(knob, "4294967296");
        EXPECT_THROW(harness::crashMcConfigFromEnv(),
                     std::invalid_argument)
            << knob;
    }
    {
        EnvGuard guard("RIO_T1_JOBS", "4294967296");
        EXPECT_THROW(harness::perfConfigFromEnv(),
                     std::invalid_argument);
    }
    {
        // The ablations' trial count goes through the same reader.
        EnvGuard guard("RIO_ABL_TRIALS", "4294967296");
        EXPECT_THROW(harness::ablationKnobsFromEnv(26),
                     std::invalid_argument);
    }
    EnvGuard guard("RIO_T1_CRASHES", "4294967295");
    EXPECT_EQ(harness::campaignConfigFromEnv().crashesPerCell,
              4294967295u);
}

TEST(EnvStrict, AblationKnobsReadSeedTrialsAndJobs)
{
    for (const char *knob : {"RIO_SEED", "RIO_ABL_TRIALS", "RIO_T1_JOBS"})
        ::unsetenv(knob);
    harness::AblationKnobs knobs = harness::ablationKnobsFromEnv(26);
    EXPECT_EQ(knobs.seed, 1u);
    EXPECT_EQ(knobs.trials, 26u);
    EXPECT_EQ(knobs.jobs, 0u);
    {
        EnvGuard seed("RIO_SEED", "9");
        EnvGuard trials("RIO_ABL_TRIALS", "6");
        EnvGuard jobs("RIO_T1_JOBS", "3");
        knobs = harness::ablationKnobsFromEnv(26);
        EXPECT_EQ(knobs.seed, 9u);
        EXPECT_EQ(knobs.trials, 6u);
        EXPECT_EQ(knobs.jobs, 3u);
    }
    // Zero trials would print an empty table; zero workers is spelt
    // by leaving the knob unset.
    for (const char *knob : {"RIO_ABL_TRIALS", "RIO_T1_JOBS"}) {
        EnvGuard guard(knob, "0");
        EXPECT_THROW(harness::ablationKnobsFromEnv(26),
                     std::invalid_argument)
            << knob << "=0 accepted";
    }
    // The retired per-ablation names fail loudly instead of being
    // ignored.
    for (const char *knob :
         {"RIO_REC_TRIALS", "RIO_DF_TRIALS", "RIO_NV_TRIALS",
          "RIO_REC_INTENSITY", "RIO_REC_FLUSH_NS"}) {
        EnvGuard guard(knob, "6");
        EXPECT_THROW(harness::ablationKnobsFromEnv(26),
                     std::invalid_argument)
            << knob << " accepted";
    }
}

TEST(EnvStrict, ScaledKnobsRejectValuesThatWrap)
{
    // 18446744074 s used to wrap the observation window to 0.29 s.
    {
        EnvGuard guard("RIO_T1_WINDOW_S", "18446744074");
        EXPECT_THROW(harness::campaignConfigFromEnv(),
                     std::invalid_argument);
    }
    {
        // 2^44 MiB used to shift to a 0-byte cp+rm tree.
        EnvGuard guard("RIO_PERF_MB", "17592186044416");
        EXPECT_THROW(harness::perfConfigFromEnv(),
                     std::invalid_argument);
    }
    // The largest values that fit still parse.
    {
        EnvGuard guard("RIO_T1_WINDOW_S", "18446744073");
        EXPECT_EQ(harness::campaignConfigFromEnv().observationNs,
                  18446744073ull * sim::kNsPerSec);
    }
    EnvGuard guard("RIO_PERF_MB", "17592186044415");
    EXPECT_EQ(harness::perfConfigFromEnv().cprmBytes,
              17592186044415ull << 20);
}

TEST(EnvStrict, ConfigsIgnoreTheEnvironment)
{
    // Knobs a shell may carry over from another experiment: none of
    // them may reach a config that a test, ablation or example builds
    // itself. RIO_T1_POSTCRASH=1.0 used to fail
    // PowerCycle.RunsTheOutageBudgetAndRecoversClean, and
    // RIO_MC_SHADOW=0 NvCrashMc.EveryShadowFlipPointRecoversWithTheMirror.
    std::deque<EnvGuard> hostile;
    for (const auto &[name, value] :
         std::initializer_list<std::pair<const char *, const char *>>{
             {"RIO_SEED", "9"},
             {"RIO_T1_CRASHES", "3"},
             {"RIO_T1_WINDOW_S", "2"},
             {"RIO_VERBOSE", "1"},
             {"RIO_T1_JOBS", "2"},
             {"RIO_T1_PROGRESS", "1"},
             {"RIO_T1_JSON", "out"},
             {"RIO_T1_POSTCRASH", "1.0"},
             {"RIO_T1_HARDENED", "0"},
             {"RIO_T1_IDLEFLUSH_NS", "5"},
             {"RIO_DISKFAULT_INTENSITY", "1.0"},
             {"RIO_DISKFAULT_DOUBLECRASH", "0.5"},
             {"RIO_DISKFAULT_RETRY", "0"},
             {"RIO_DISKFAULT_REENTRANT", "0"},
             {"RIO_NV_FAULT", "1.0"},
             {"RIO_T1_POWERCYCLE", "1000"},
             {"RIO_T1_POWERCYCLES", "1"},
             {"RIO_T1_NV", "1"},
             {"RIO_MC_OPS", "4"},
             {"RIO_MC_JOBS", "2"},
             {"RIO_MC_HARDENED", "0"},
             {"RIO_MC_SHADOW", "0"},
             {"RIO_MC_NV", "1"},
             {"RIO_MC_JCHECKSUM", "0"},
             {"RIO_MC_TORN", "1"},
             {"RIO_MC_PROGRESS", "1"},
             {"RIO_PERF_MB", "2"},
         })
        hostile.emplace_back(name, value);

    const harness::CampaignConfig campaign;
    EXPECT_EQ(campaign.seed, 1u);
    EXPECT_EQ(campaign.crashesPerCell, 50u);
    EXPECT_EQ(campaign.observationNs, 10 * sim::kNsPerSec);
    EXPECT_FALSE(campaign.verbose);
    EXPECT_EQ(campaign.jobs, 0u);
    EXPECT_FALSE(campaign.progress);
    EXPECT_EQ(campaign.jsonDir, "");
    EXPECT_EQ(campaign.postCrashIntensity, 0.0);
    EXPECT_TRUE(campaign.hardenedRecovery);
    EXPECT_EQ(campaign.rioIdleFlushNs, 0u);
    EXPECT_EQ(campaign.diskFaultIntensity, 0.0);
    EXPECT_EQ(campaign.doubleCrashRate, 0.0);
    EXPECT_TRUE(campaign.ioRetryEnabled);
    EXPECT_TRUE(campaign.reentrantRecovery);
    EXPECT_EQ(campaign.nvFaultIntensity, 0.0);
    EXPECT_EQ(campaign.powerCycleOps, 0u);
    EXPECT_EQ(campaign.powerCycles, 3u);
    EXPECT_EQ(campaign.systems.size(), 3u);

    const harness::CrashMcConfig mc;
    EXPECT_EQ(mc.seed, 1u);
    EXPECT_EQ(mc.ops, 12u);
    EXPECT_EQ(mc.jobs, 0u);
    EXPECT_TRUE(mc.hardened);
    EXPECT_TRUE(mc.shadowMetadata);
    EXPECT_FALSE(mc.nvBacked);
    EXPECT_TRUE(mc.journalChecksum);
    EXPECT_FALSE(mc.tornCommit);
    EXPECT_FALSE(mc.progress);

    const harness::PerfConfig perf;
    EXPECT_EQ(perf.seed, 1u);
    EXPECT_EQ(perf.cprmBytes, 40ull << 20);
    EXPECT_FALSE(perf.verbose);
    EXPECT_EQ(perf.jobs, 0u);

    // The readers do see the same environment.
    const harness::CampaignConfig read = harness::campaignConfigFromEnv();
    EXPECT_EQ(read.seed, 9u);
    EXPECT_EQ(read.postCrashIntensity, 1.0);
    EXPECT_EQ(read.systems.size(), 4u);
    EXPECT_FALSE(harness::crashMcConfigFromEnv().shadowMetadata);
    EXPECT_EQ(harness::perfConfigFromEnv().cprmBytes, 2ull << 20);
}

TEST(EnvStrict, UnknownKnobIsRejected)
{
    // A typo of RIO_T1_CRASHES used to run 50 crashes per cell.
    EnvGuard guard("RIO_T1_CRASH", "5");
    try {
        harness::campaignConfigFromEnv();
        FAIL() << "RIO_T1_CRASH did not throw";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("RIO_T1_CRASH"),
                  std::string::npos);
    }
    EXPECT_THROW(harness::crashMcConfigFromEnv(), std::invalid_argument);
    EXPECT_THROW(harness::perfConfigFromEnv(), std::invalid_argument);
    EXPECT_THROW(harness::rejectUnknownKnobs(), std::invalid_argument);
    ::unsetenv("RIO_T1_CRASH");
    EXPECT_NO_THROW(harness::rejectUnknownKnobs());
}

TEST(EnvStrict, EveryKnobInTheSourceIsInTheTable)
{
    // Every "RIO_..." literal under src/, bench/, examples/ and
    // tests/ names a knob of knobTable(), each declared once and read
    // somewhere besides its declaration. This file is skipped: its
    // parser tests use made-up names on purpose.
    std::map<std::string, int> literals;
    for (const char *dir : {"src", "bench", "examples", "tests"}) {
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(
                 std::filesystem::path(RIO_SOURCE_ROOT) / dir)) {
            const std::string ext = entry.path().extension().string();
            if ((ext != ".cc" && ext != ".hh" && ext != ".cpp") ||
                entry.path().filename() == "test_harness.cc")
                continue;
            std::ifstream in(entry.path());
            const std::string text{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
            for (std::size_t at = text.find("\"RIO_");
                 at != std::string::npos; at = text.find("\"RIO_", at + 1)) {
                const std::size_t end = text.find_first_not_of(
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", at + 5);
                if (end > at + 5 && end != std::string::npos &&
                    text[end] == '"')
                    ++literals[text.substr(at + 1, end - at - 1)];
            }
        }
    }
    std::set<std::string> declared;
    for (const harness::Knob &knob : harness::knobTable()) {
        EXPECT_TRUE(declared.insert(knob.name).second)
            << knob.name << " is declared twice";
        EXPECT_GE(literals[knob.name], 2)
            << knob.name << " is declared but never read";
    }
    for (const auto &[name, count] : literals)
        EXPECT_TRUE(declared.contains(name))
            << name << " is read but missing from knobTable()";
}
