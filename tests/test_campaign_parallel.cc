/**
 * @file
 * The parallel campaign engine's determinism guarantee: the same
 * (seed, config) produces bit-identical merged results and trial
 * records at any worker count, because every trial's randomness is
 * a pure function of its coordinates and the merge is by cell index,
 * never completion order. Plus known-answer and collision tests for
 * the seed derivation itself, so a refactor cannot silently
 * reintroduce a shared-RNG or iteration-order dependence.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "harness/crashcampaign.hh"
#include "harness/pool.hh"
#include "harness/sink.hh"

using namespace rio;
using namespace rio::harness;

// ---------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------

TEST(TrialSeedTest, Mix64KnownAnswers)
{
    // Canonical splitmix64 outputs for states 0 and 1.
    EXPECT_EQ(mix64(0), 16294208416658607535ull);
    EXPECT_EQ(mix64(1), 10451216379200822465ull);
    EXPECT_EQ(mix64(0x9e3779b97f4a7c15ull),
              7960286522194355700ull);
}

TEST(TrialSeedTest, KnownAnswers)
{
    // Pinned values: changing the derivation changes every campaign
    // number, so it must be deliberate (and noted in EXPERIMENTS.md).
    EXPECT_EQ(trialSeed(1, SystemKind::DiskWriteThrough,
                        fault::FaultType::BitFlipText, 0),
              18131666098459240081ull);
    EXPECT_EQ(trialSeed(1, SystemKind::RioWithProtection,
                        fault::FaultType::Synchronization, 49),
              17732349524506936395ull);
    const u64 ts = trialSeed(1, SystemKind::DiskWriteThrough,
                             fault::FaultType::BitFlipText, 0);
    EXPECT_EQ(attemptSeed(ts, 0), 557516188218257759ull);
    EXPECT_EQ(attemptSeed(ts, 3), 5676132459416475943ull);
}

TEST(TrialSeedTest, DependsOnEveryCoordinate)
{
    const u64 base = trialSeed(7, SystemKind::RioNoProtection,
                               fault::FaultType::CopyOverrun, 5);
    EXPECT_NE(base, trialSeed(8, SystemKind::RioNoProtection,
                              fault::FaultType::CopyOverrun, 5));
    EXPECT_NE(base, trialSeed(7, SystemKind::RioWithProtection,
                              fault::FaultType::CopyOverrun, 5));
    EXPECT_NE(base, trialSeed(7, SystemKind::RioNoProtection,
                              fault::FaultType::OffByOne, 5));
    EXPECT_NE(base, trialSeed(7, SystemKind::RioNoProtection,
                              fault::FaultType::CopyOverrun, 6));
}

TEST(TrialSeedTest, NoCollisionsAcrossFullCampaignSpace)
{
    // The paper-scale space is 3 systems x 13 faults x up to 1000
    // trials; every trial must own a distinct seed stream.
    std::unordered_set<u64> seen;
    seen.reserve(3 * fault::kNumFaultTypes * 1000);
    for (int system = 0; system < 3; ++system) {
        for (std::size_t type = 0; type < fault::kNumFaultTypes;
             ++type) {
            for (u32 trial = 0; trial < 1000; ++trial) {
                const u64 seed = trialSeed(
                    1, static_cast<SystemKind>(system),
                    static_cast<fault::FaultType>(type), trial);
                EXPECT_TRUE(seen.insert(seed).second)
                    << "collision at (" << system << "," << type
                    << "," << trial << ")";
            }
        }
    }
    EXPECT_EQ(seen.size(), 3 * fault::kNumFaultTypes * 1000);
}

TEST(TrialSeedTest, AttemptSeedsDistinctWithinTrial)
{
    const u64 ts = trialSeed(3, SystemKind::RioNoProtection,
                             fault::FaultType::BitFlipHeap, 2);
    std::unordered_set<u64> seen;
    for (u32 attempt = 0; attempt < 25; ++attempt)
        EXPECT_TRUE(seen.insert(attemptSeed(ts, attempt)).second);
}

// ---------------------------------------------------------------
// Worker pool basics.
// ---------------------------------------------------------------

TEST(WorkerPoolTest, ParallelForCoversEveryIndexOnce)
{
    std::vector<int> hits(500, 0);
    WorkerPool pool(8);
    parallelFor(pool, hits.size(),
                [&](u64 index) { hits[index] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(WorkerPoolTest, ReusableAfterWait)
{
    WorkerPool pool(4);
    std::atomic<int> count{0};
    parallelFor(pool, 100, [&](u64) { ++count; });
    EXPECT_EQ(count.load(), 100);
    parallelFor(pool, 50, [&](u64) { ++count; });
    EXPECT_EQ(count.load(), 150);
}

TEST(WorkerPoolTest, ResolveJobsNeverZero)
{
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(5), 5u);
}

TEST(WorkerPoolTest, ThrowingTaskPropagatesFromWait)
{
    WorkerPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&ran, i] {
            ++ran;
            if (i == 5)
                throw std::runtime_error("task failed");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Every other task still ran: the failure neither deadlocked the
    // pool nor leaked the active count.
    EXPECT_EQ(ran.load(), 16);

    // The error was consumed; the pool is reusable afterwards.
    std::atomic<int> more{0};
    parallelFor(pool, 64, [&more](u64) { ++more; });
    EXPECT_EQ(more.load(), 64);
}

TEST(WorkerPoolTest, FirstOfSeveralErrorsIsReported)
{
    WorkerPool pool(2);
    for (int i = 0; i < 8; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    bool threw = false;
    try {
        pool.wait();
    } catch (const std::runtime_error &error) {
        threw = true;
        EXPECT_STREQ(error.what(), "boom");
    }
    EXPECT_TRUE(threw);
    // Exactly one rethrow: a second wait() on the drained pool is
    // clean, not a double report of a stale exception.
    pool.wait();
}

// ---------------------------------------------------------------
// Campaign determinism.
// ---------------------------------------------------------------

namespace
{

CampaignConfig
reducedConfig(u64 seed, u32 jobs)
{
    CampaignConfig config;
    config.seed = seed;
    config.jobs = jobs;
    config.crashesPerCell = 3;
    config.maxAttemptsPerCrash = 4;
    config.observationNs = 2 * sim::kNsPerSec;
    config.systems = {SystemKind::DiskWriteThrough,
                      SystemKind::RioNoProtection};
    config.faults = {fault::FaultType::PointerCorruption,
                     fault::FaultType::BitFlipHeap,
                     fault::FaultType::DeleteBranch};
    return config;
}

struct CampaignOutput
{
    CampaignResult result;
    std::vector<TrialRecord> records;
    std::string jsonl;
    std::string table;
    std::string json;
};

CampaignOutput
runReduced(const CampaignConfig &config)
{
    CrashCampaign campaign(config);

    CampaignOutput out;
    out.result = campaign.runAll(&out.records);
    for (const TrialRecord &record : out.records)
        out.jsonl += trialToJson(record) + '\n';
    out.table = CrashCampaign::renderTable1(out.result, config);
    out.json = campaignToJson(out.result, config, nullptr);
    return out;
}

CampaignOutput
runReduced(u64 seed, u32 jobs)
{
    return runReduced(reducedConfig(seed, jobs));
}

} // namespace

TEST(CampaignParallel, ByteIdenticalAcrossThreadCounts)
{
    const CampaignOutput one = runReduced(42, 1);
    const CampaignOutput two = runReduced(42, 2);
    const CampaignOutput eight = runReduced(42, 8);

    // Merged cells and crash-cause counts.
    EXPECT_TRUE(one.result == two.result);
    EXPECT_TRUE(one.result == eight.result);

    // Per-trial records, in order.
    EXPECT_EQ(one.records, two.records);
    EXPECT_EQ(one.records, eight.records);

    // Rendered artifacts, byte for byte.
    EXPECT_EQ(one.jsonl, two.jsonl);
    EXPECT_EQ(one.jsonl, eight.jsonl);
    EXPECT_EQ(one.table, two.table);
    EXPECT_EQ(one.table, eight.table);
    EXPECT_EQ(one.json, two.json);
    EXPECT_EQ(one.json, eight.json);

    // Sanity: the reduced campaign actually did something.
    const std::size_t expected = 2u * 3u * 3u;
    EXPECT_EQ(one.records.size(), expected);
    u64 crashes = 0;
    for (const auto &system : one.result.cells)
        for (const auto &cell : system)
            crashes += cell.crashes;
    EXPECT_GT(crashes, 0u);
}

TEST(CampaignParallel, LockdepDoesNotPerturbResults)
{
    // The lockdep validator is pure bookkeeping — no RNG draws, no
    // clock reads — so Table 1 must come out byte-identical with it
    // on or off. If this breaks, lockdep has grown a side effect
    // that perturbs seed-reproducible campaigns.
    CampaignConfig on = reducedConfig(42, 2);
    on.lockdep = true;
    CampaignConfig off = reducedConfig(42, 2);
    off.lockdep = false;

    const CampaignOutput a = runReduced(on);
    const CampaignOutput b = runReduced(off);
    EXPECT_TRUE(a.result == b.result);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.jsonl, b.jsonl);
    EXPECT_EQ(a.table, b.table);
    EXPECT_EQ(a.json, b.json);
}

TEST(CampaignParallel, DifferentSeedsProduceDifferentResults)
{
    const CampaignOutput a = runReduced(1, 4);
    const CampaignOutput b = runReduced(2, 4);
    ASSERT_FALSE(a.records.empty());
    ASSERT_EQ(a.records.size(), b.records.size());
    // The campaign seed reaches every trial's derivation...
    EXPECT_NE(a.records[0].trialSeed, b.records[0].trialSeed);
    // ...and through it the actual runs.
    EXPECT_NE(a.jsonl, b.jsonl);
}

TEST(CampaignParallel, StatsAccountForEveryTrial)
{
    const CampaignConfig config = reducedConfig(7, 2);
    CrashCampaign campaign(config);
    CampaignStats stats;
    campaign.runAll(nullptr, &stats);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.trials, 2u * 3u * 3u);
    EXPECT_GE(stats.attempts, stats.trials);
    EXPECT_GT(stats.wallSeconds, 0.0);
}

TEST(CampaignParallel, SerialCellMatchesParallelCell)
{
    // runCell is the serial reference path; the parallel engine must
    // agree with it cell by cell.
    const CampaignConfig config = reducedConfig(11, 4);
    CrashCampaign parallelCampaign(config);
    const CampaignResult parallelResult = parallelCampaign.runAll();

    CrashCampaign serialCampaign(config);
    CampaignResult serialResult;
    for (const SystemKind kind : config.systems)
        for (const fault::FaultType type : config.faults)
            serialCampaign.runCell(kind, type, serialResult);
    EXPECT_TRUE(serialResult == parallelResult);
}

TEST(CampaignParallel, TrialRecordReplaysWithRecordedSeed)
{
    // A JSONL record names (system, fault, crashSeed); replaying
    // runOne with that seed reproduces the crash — the debugging
    // workflow documented in docs/TUTORIAL.md.
    const CampaignConfig config = reducedConfig(42, 2);
    CrashCampaign campaign(config);
    std::vector<TrialRecord> records;
    campaign.runAll(&records);
    for (const TrialRecord &record : records) {
        if (!record.crashed)
            continue;
        const auto replay = campaign.runOne(
            static_cast<SystemKind>(record.system),
            static_cast<fault::FaultType>(record.fault),
            record.crashSeed);
        EXPECT_TRUE(replay.crashed);
        EXPECT_EQ(replay.message, record.message);
        EXPECT_EQ(static_cast<u32>(replay.cause), record.cause);
        EXPECT_EQ(replay.corrupt, record.corrupt);
        return; // One replay keeps the test fast.
    }
    FAIL() << "no crashed trial to replay";
}

// ---------------------------------------------------------------
// JSON rendering.
// ---------------------------------------------------------------

TEST(SinkTest, TrialJsonContainsCoordinatesAndSeed)
{
    TrialRecord record;
    record.system = 1;
    record.fault = 10;
    record.trial = 7;
    record.trialSeed = 123456789;
    record.crashSeed = 987654321;
    record.attempts = 2;
    record.discards = 1;
    record.crashed = true;
    record.cause = 2;
    record.message = "kernel panic: \"bad\" pointer";
    const std::string json = trialToJson(record);
    EXPECT_NE(json.find("\"systemIndex\":1"), std::string::npos);
    EXPECT_NE(json.find("\"faultIndex\":10"), std::string::npos);
    EXPECT_NE(json.find("\"trial\":7"), std::string::npos);
    EXPECT_NE(json.find("\"trialSeed\":123456789"),
              std::string::npos);
    EXPECT_NE(json.find("\"crashSeed\":987654321"),
              std::string::npos);
    EXPECT_NE(json.find("\\\"bad\\\""), std::string::npos);
    // Exactly one line, no raw newline inside.
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(SinkTest, CampaignJsonCarriesTotalsAndCells)
{
    CampaignConfig config = reducedConfig(1, 1);
    CampaignResult result;
    result.cells[1][10].crashes = 50;
    result.cells[1][10].corruptions = 4;
    result.crashCauseCounts[2] = 50;
    const std::string json = campaignToJson(result, config, nullptr);
    EXPECT_NE(json.find("\"experiment\": \"table1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"corruptions\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"crashes\": 50"), std::string::npos);
    // No host section without stats (keeps the file deterministic).
    EXPECT_EQ(json.find("\"host\""), std::string::npos);

    CampaignStats stats;
    stats.jobs = 8;
    stats.trials = 50;
    stats.wallSeconds = 1.5;
    const std::string withStats =
        campaignToJson(result, config, &stats);
    EXPECT_NE(withStats.find("\"host\""), std::string::npos);
    EXPECT_NE(withStats.find("\"jobs\": 8"), std::string::npos);
}
