/**
 * @file
 * Golden crash-point checker output: the exact bytes mcPointToJson,
 * mcSummaryToJson and mcRenderSummary make of a hand-built McResult
 * with one recovered point, one counterexample whose failure text
 * holds a quote and a newline, and per-class counts with zero
 * entries (the JSON summary lists them, the text summary skips
 * them). crashmc_main writes these files; the corpus pipeline reads
 * the counterexamples back.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/crashmc.hh"

using namespace rio;
using namespace rio::harness;

namespace
{

McPointRecord
recoveredPoint()
{
    McPointRecord point;
    point.eventClass = static_cast<u32>(McEventClass::BusStore);
    point.eventAddr = 4096;
    point.seed = 5;
    point.pointSeed = 123456789;
    point.crashed = true;
    point.recovered = true;
    point.metadataRestored = 3;
    point.metadataFromShadow = 1;
    point.opsCompleted = 2;
    return point;
}

McPointRecord
counterexample()
{
    McPointRecord point;
    point.eventIndex = 2;
    point.eventClass = static_cast<u32>(McEventClass::ProtoCommit);
    point.eventAddr = 8192;
    point.seed = 5;
    point.pointSeed = 987654321;
    point.crashed = true;
    point.oracleOk = false;
    point.metadataRestored = 1;
    point.metadataFromPhysFallback = 1;
    point.metadataQuarantined = 1;
    point.metadataUnrestorable = 1;
    point.corruptFiles = 2;
    point.opsCompleted = 3;
    point.failure = "file \"/m/f1\" differs\nsecond line";
    return point;
}

McResult
handBuiltResult()
{
    McWorkloadResult flip;
    flip.kind = McWorkloadKind::ShadowFlip;
    flip.totalEvents = 3;
    flip.pointsRun = 2;
    flip.recoveredPoints = 1;
    flip.unrecoveredPoints = 1;
    flip.perClass[static_cast<u32>(McEventClass::BusStore)] = 2;
    flip.perClass[static_cast<u32>(McEventClass::ProtoCommit)] = 1;
    flip.points = {recoveredPoint(), counterexample()};

    McWorkloadResult journal;
    journal.kind = McWorkloadKind::JournalOrdered;
    journal.totalEvents = 5;
    journal.pointsRun = 5;
    journal.recoveredPoints = 4;
    journal.driftPoints = 1;
    journal.perClass[static_cast<u32>(McEventClass::DiskFlush)] = 4;
    journal.perClass[static_cast<u32>(McEventClass::JournalCommit)] = 1;

    McResult result;
    result.workloads = {flip, journal};
    return result;
}

CrashMcConfig
handBuiltConfig()
{
    CrashMcConfig config;
    config.seed = 5;
    config.ops = 4;
    config.hardened = false;
    config.journalChecksum = false;
    config.tornCommit = true;
    return config;
}

} // namespace

TEST(GoldenMcSink, PointJson)
{
    EXPECT_EQ(mcPointToJson(recoveredPoint()),
              "{\"workload\":\"shadow-flip\",\"eventIndex\":0"
              ",\"eventClass\":\"bus-store\",\"eventAddr\":4096"
              ",\"seed\":5,\"pointSeed\":123456789,\"crashed\":true"
              ",\"recovered\":true,\"oracleOk\":true"
              ",\"metadataRestored\":3,\"metadataFromShadow\":1"
              ",\"metadataFromPhysFallback\":0"
              ",\"metadataQuarantined\":0,\"metadataUnrestorable\":0"
              ",\"corruptFiles\":0,\"opsCompleted\":2,\"failure\":\"\"}");
    EXPECT_EQ(mcPointToJson(counterexample()),
              "{\"workload\":\"shadow-flip\",\"eventIndex\":2"
              ",\"eventClass\":\"proto-commit\",\"eventAddr\":8192"
              ",\"seed\":5,\"pointSeed\":987654321,\"crashed\":true"
              ",\"recovered\":false,\"oracleOk\":false"
              ",\"metadataRestored\":1,\"metadataFromShadow\":0"
              ",\"metadataFromPhysFallback\":1"
              ",\"metadataQuarantined\":1,\"metadataUnrestorable\":1"
              ",\"corruptFiles\":2,\"opsCompleted\":3"
              ",\"failure\":\"file \\\"/m/f1\\\" differs\\nsecond "
              "line\"}");
}

TEST(GoldenMcSink, SummaryJson)
{
    EXPECT_EQ(
        mcSummaryToJson(handBuiltResult(), handBuiltConfig()),
        "{\n"
        "  \"experiment\": \"crashmc\",\n"
        "  \"schema\": 2,\n"
        "  \"seed\": 5,\n"
        "  \"ops\": 4,\n"
        "  \"hardened\": false,\n"
        "  \"shadowMetadata\": true,\n"
        "  \"journalChecksum\": false,\n"
        "  \"tornCommit\": true,\n"
        "  \"workloads\": [\n"
        "    {\n"
        "      \"name\": \"shadow-flip\",\n"
        "      \"events\": 3,\n"
        "      \"pointsRun\": 2,\n"
        "      \"recovered\": 1,\n"
        "      \"unrecovered\": 1,\n"
        "      \"drift\": 0,\n"
        "      \"perClass\": {\n"
        "        \"bus-store\": 2,\n"
        "        \"proto-open\": 0,\n"
        "        \"proto-close\": 0,\n"
        "        \"proto-shadow-copy\": 0,\n"
        "        \"proto-field-write\": 0,\n"
        "        \"proto-commit\": 1,\n"
        "        \"disk-flush\": 0,\n"
        "        \"nv-mirror-write\": 0,\n"
        "        \"journal-commit\": 0,\n"
        "        \"journal-checkpoint\": 0\n"
        "      }\n"
        "    },\n"
        "    {\n"
        "      \"name\": \"journal-ordered\",\n"
        "      \"events\": 5,\n"
        "      \"pointsRun\": 5,\n"
        "      \"recovered\": 4,\n"
        "      \"unrecovered\": 0,\n"
        "      \"drift\": 1,\n"
        "      \"perClass\": {\n"
        "        \"bus-store\": 0,\n"
        "        \"proto-open\": 0,\n"
        "        \"proto-close\": 0,\n"
        "        \"proto-shadow-copy\": 0,\n"
        "        \"proto-field-write\": 0,\n"
        "        \"proto-commit\": 0,\n"
        "        \"disk-flush\": 4,\n"
        "        \"nv-mirror-write\": 0,\n"
        "        \"journal-commit\": 1,\n"
        "        \"journal-checkpoint\": 0\n"
        "      }\n"
        "    }\n"
        "  ],\n"
        "  \"counterexamples\": [\n"
        "    {\n"
        "      \"workload\": \"shadow-flip\",\n"
        "      \"eventIndex\": 2,\n"
        "      \"eventClass\": \"proto-commit\",\n"
        "      \"seed\": 5,\n"
        "      \"failure\": \"file \\\"/m/f1\\\" differs\\nsecond line\"\n"
        "    }\n"
        "  ],\n"
        "  \"totalUnrecovered\": 2\n"
        "}\n");
}

TEST(GoldenMcSink, RenderedSummary)
{
    EXPECT_EQ(
        mcRenderSummary(handBuiltResult(), handBuiltConfig()),
        "crashmc: seed 5, ops 4, restore trusting, shadowMetadata on, "
        "journalChecksum off, tornCommit on\n"
        "workload       events  recovered  unrecovered  drift\n"
        "shadow-flip         3          1            1      0\n"
        "  classes: bus-store=2 proto-commit=1\n"
        "  FAIL k=2 (proto-commit): file \"/m/f1\" differs\n"
        "second line\n"
        "journal-ordered        5          4            0      1\n"
        "  classes: disk-flush=4 journal-commit=1\n");
}
