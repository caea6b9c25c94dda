/**
 * @file
 * riolint behaves as specified: every rule fires on its known-bad
 * fixture, annotations suppress without hiding, and the live tree
 * carries zero unannotated violations — the same gate CI applies.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint.hh"

namespace
{

using riolint::Finding;
using riolint::Rule;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<Finding>
lintFixture(const std::string &name)
{
    const std::string path =
        std::string(RIO_SOURCE_ROOT) + "/tests/riolint_fixtures/" +
        name;
    return riolint::lintSource("tests/riolint_fixtures/" + name,
                               readFile(path));
}

int
countRule(const std::vector<Finding> &findings, Rule rule,
          bool allowed = false)
{
    return static_cast<int>(std::count_if(
        findings.begin(), findings.end(), [&](const Finding &f) {
            return f.rule == rule && f.allowed == allowed;
        }));
}

TEST(Riolint, R1FiresOnUncheckedStores)
{
    const auto findings = lintFixture("bad_r1.cc");
    EXPECT_GE(countRule(findings, Rule::R1CheckedStore), 4)
        << "raw(), memcpy, memset and hostSector() must all be "
           "flagged";
}

TEST(Riolint, R2FiresOnHostEntropy)
{
    const auto findings = lintFixture("bad_r2.cc");
    // rand(), system_clock and time() are three distinct findings.
    EXPECT_GE(countRule(findings, Rule::R2Determinism), 3);
}

TEST(Riolint, R3FiresOnInvertedLockOrder)
{
    const auto findings = lintFixture("bad_r3.cc");
    ASSERT_EQ(countRule(findings, Rule::R3LockOrder), 1);
    for (const Finding &f : findings) {
        if (f.rule == Rule::R3LockOrder) {
            EXPECT_NE(f.message.find("fsLock_"), std::string::npos);
        }
    }
}

TEST(Riolint, R3AcceptsCanonicalOrder)
{
    const auto findings = riolint::lintSource("src/os/good.cc", R"(
// riolint:rank(fsLock_, 10)
// riolint:rank(bufLock_, 30)
void Ufs::goodNesting() {
    LockTable::Guard outer(locks_, fsLock_);
    {
        LockTable::Guard inner(locks_, bufLock_);
    }
    // bufLock_ released by scope exit: re-acquiring is fine.
    LockTable::Guard again(locks_, bufLock_);
}
)");
    EXPECT_EQ(countRule(findings, Rule::R3LockOrder), 0);
}

TEST(Riolint, R3FlagsInterproceduralInversion)
{
    // The inversion is invisible per-function: the helper's acquire
    // only breaks the lattice through the call edge.
    const auto findings = riolint::lintSource("src/os/bad.cc", R"(
// riolint:rank(fsLock_, 10)
// riolint:rank(bufLock_, 30)
void Ufs::lockedHelper() {
    LockTable::Guard g(locks_, fsLock_);
    doWork();
}
void Ufs::caller() {
    LockTable::Guard g(locks_, bufLock_);
    lockedHelper();
}
)");
    ASSERT_EQ(countRule(findings, Rule::R3LockOrder), 1);
    for (const Finding &f : findings) {
        if (f.rule == Rule::R3LockOrder) {
            EXPECT_NE(f.message.find("via call to lockedHelper"),
                      std::string::npos)
                << f.message;
        }
    }
}

TEST(Riolint, R3RequiresRankAnnotationAtAddSites)
{
    const auto findings = riolint::lintSource("src/os/drift.cc", R"(
void Ufs::attach() {
    fsLock_ = locks_.add("filesystem", LockRank{10});
}
)");
    ASSERT_EQ(countRule(findings, Rule::R3LockOrder), 1);
    EXPECT_NE(findings[0].message.find("riolint:rank"),
              std::string::npos);
}

TEST(Riolint, R3FlagsRankAnnotationDrift)
{
    // The annotation says 10 but the code registers 20: the lattice
    // the linter checks would no longer be the one the runtime
    // lockdep enforces.
    const auto findings = riolint::lintSource("src/os/drift.cc", R"(
void Ufs::attach() {
    // riolint:rank(fsLock_, 10)
    fsLock_ = locks_.add("filesystem", LockRank{20});
}
)");
    EXPECT_EQ(countRule(findings, Rule::R3LockOrder), 1);
}

TEST(Riolint, R4FiresOnDroppedResults)
{
    const auto findings = lintFixture("bad_r4.cc");
    // Missing [[nodiscard]] + two dropped call sites.
    EXPECT_EQ(countRule(findings, Rule::R4ErrorFlow), 3);
}

TEST(Riolint, R4AcceptsConsumedResults)
{
    const auto findings = riolint::lintSource("src/os/good.cc", R"(
[[nodiscard]] OsStatus flushQuietly(Dev dev);
void carefulCaller(Dev dev) {
    const auto status = flushQuietly(dev);
    (void)flushQuietly(dev);
    if (flushQuietly(dev) != OsStatus::Ok)
        return;
}
)");
    EXPECT_EQ(countRule(findings, Rule::R4ErrorFlow), 0);
}

TEST(Riolint, R4FiresOnStatementPositionChains)
{
    const auto findings = lintFixture("bad_r4_chain.cc");
    // this->, chain end, and both comma operands: four drops; the
    // consumed variants below them must stay silent.
    EXPECT_EQ(countRule(findings, Rule::R4ErrorFlow), 4);
}

TEST(Riolint, R5FiresOutsideProtocolEntryPoints)
{
    const auto findings = lintFixture("bad_r5.cc");
    EXPECT_EQ(countRule(findings, Rule::R5RegistryMutation), 1);
}

TEST(Riolint, R5AcceptsProtocolEntryPointsInRio)
{
    const auto findings = riolint::lintSource("src/core/rio.cc", R"(
void RioSystem::setDirty(Addr page, bool dirty) {
    writeEntryField32(entryIndexFor(page), kOffDirty, dirty);
}
)");
    EXPECT_EQ(countRule(findings, Rule::R5RegistryMutation), 0);
}

TEST(Riolint, R7FiresOnLockCycleAcrossFunctions)
{
    const auto findings = lintFixture("bad_r7.cc");
    ASSERT_EQ(countRule(findings, Rule::R7DeadlockCycle), 1);
    for (const Finding &f : findings) {
        if (f.rule == Rule::R7DeadlockCycle) {
            EXPECT_NE(f.message.find("aLock_"), std::string::npos);
            EXPECT_NE(f.message.find("bLock_"), std::string::npos);
        }
    }
}

TEST(Riolint, R8FiresOnCrashCapableCallsUnderBareLocks)
{
    const auto findings = lintFixture("bad_r8.cc");
    // Direct retryWrite, transitive panic, and a missing release.
    EXPECT_EQ(countRule(findings, Rule::R8CrashWhileLocked), 3);
}

TEST(Riolint, R8AcceptsGuardedCrashCapableCalls)
{
    // A Guard releases via releaseQuiet on the unwind path, so a
    // crash under it is exactly what the design intends.
    const auto findings = riolint::lintSource("src/os/good.cc", R"(
void Ufs::writesUnderGuard() {
    LockTable::Guard g(locks_, fsLock_);
    retryWrite(dev_, block_);
}
)");
    EXPECT_EQ(countRule(findings, Rule::R8CrashWhileLocked), 0);
}

TEST(Riolint, AnnotationSuppressesButStillReports)
{
    const auto findings = lintFixture("clean_allowed.cc");
    EXPECT_EQ(countRule(findings, Rule::R1CheckedStore, false), 0);
    ASSERT_EQ(countRule(findings, Rule::R1CheckedStore, true), 1);
    for (const Finding &f : findings) {
        if (f.allowed) {
            EXPECT_NE(f.reason.find("fixture"), std::string::npos);
        }
    }
}

TEST(Riolint, AnnotationOnSameLineWorks)
{
    const auto findings = riolint::lintSource("src/os/x.cc", R"(
void f(u8 *p) {
    memset(p, 0, 8); // riolint:allow(R1) same-line form.
}
)");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].allowed);
}

TEST(Riolint, WhitelistedPathsAreExempt)
{
    const auto findings = riolint::lintSource(
        "src/sim/membus.cc", "void f(u8 *p) { memcpy(p, p, 8); }");
    EXPECT_EQ(findings.size(), 0u);
}

TEST(Riolint, LiveTreeHasNoUnannotatedViolations)
{
    const riolint::Report report =
        riolint::lintTree(RIO_SOURCE_ROOT);
    EXPECT_EQ(report.violations(), 0) << report.text();
    // The fault injectors and DMA path carry annotated exemptions;
    // if this drops to zero the allow machinery is dead.
    EXPECT_GT(report.allowed(), 0);
}

TEST(Riolint, JsonReportCarriesPerDirectoryCounts)
{
    const riolint::Report report =
        riolint::lintTree(RIO_SOURCE_ROOT);
    const std::string json = report.json();
    EXPECT_NE(json.find("\"rules\""), std::string::npos);
    EXPECT_NE(json.find("\"directories\""), std::string::npos);
    EXPECT_NE(json.find("\"src/fault\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
}

TEST(Riolint, LockGraphArtifactsDescribeTheLattice)
{
    const riolint::Report report =
        riolint::lintTree(RIO_SOURCE_ROOT);

    // DOT: all three ranked kernel locks, no red (cycle) nodes.
    EXPECT_NE(report.lockDot.find("digraph"), std::string::npos);
    EXPECT_NE(report.lockDot.find("fsLock_"), std::string::npos);
    EXPECT_NE(report.lockDot.find("ubcLock_"), std::string::npos);
    EXPECT_NE(report.lockDot.find("bufLock_"), std::string::npos);
    EXPECT_EQ(report.lockDot.find("color=red"), std::string::npos);

    // JSON: the machine-readable mirror, with an empty cycle list.
    const std::string &json = report.lockJson;
    EXPECT_NE(json.find("\"locks\""), std::string::npos);
    EXPECT_NE(json.find("\"edges\""), std::string::npos);
    EXPECT_NE(json.find("\"rank\": 30"), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": []"), std::string::npos);
}

} // namespace
