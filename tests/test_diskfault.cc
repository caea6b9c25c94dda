/**
 * @file
 * Tests for the storage fault model (fault/diskfault.hh) and the
 * OS-side retry/remap discipline (os/ioretry.hh): transient errors
 * recovered by bounded backoff in simulated time, latent bad sectors
 * remapped onto spares (and honestly abandoned when the pool is
 * dry), crash-time media decay, and the read-only degrade that keeps
 * a volume honest when metadata can no longer reach the platter.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/diskfault.hh"
#include "os/ioretry.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"

#include "testbed.hh"

using namespace rio;
using namespace rio::sim;

namespace
{

/** Deterministic surface: fail the first @p failures ops, then pass. */
class FailFirstN final : public DiskFaultSurface
{
  public:
    explicit FailFirstN(u32 failures) : left_(failures) {}

    bool
    transientError(bool, SectorNo, u64) override
    {
        if (left_ == 0)
            return false;
        --left_;
        return true;
    }

    void onCrash(Disk &, SimNs) override {}

  private:
    u32 left_;
};

Disk
makeDisk(u64 seed = 7)
{
    return Disk(1 << 20, CostModel{}, support::Rng(seed));
}

} // namespace

TEST(IoRetryTest, TransientErrorRecoversWithBackoffInSimTime)
{
    Disk disk = makeDisk();
    SimClock clock;

    std::vector<u8> payload(kSectorSize, 0x5a);
    ASSERT_EQ(disk.write(30, 1, payload, clock), DiskStatus::Ok);

    FailFirstN surface(2);
    disk.setFaultSurface(&surface);
    std::vector<u8> out(kSectorSize, 0);
    os::IoRetryPolicy policy;
    const SimNs before = clock.now();
    const os::IoOutcome outcome =
        os::retryRead(disk, 30, 1, out, clock, policy);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.retries, 2u);
    EXPECT_EQ(outcome.remaps, 0u);
    EXPECT_EQ(out[0], 0x5a);
    // The retry backed off in *simulated* time on top of the two
    // transfers' service time.
    EXPECT_GE(clock.now() - before, policy.backoffNs);
    EXPECT_GE(disk.stats().transientErrors, 1u);
}

TEST(IoRetryTest, DisabledPolicyHandsBackRawFailure)
{
    Disk disk = makeDisk();
    FailFirstN surface(1);
    disk.setFaultSurface(&surface);
    SimClock clock;

    std::vector<u8> out(kSectorSize, 0);
    os::IoRetryPolicy policy;
    policy.enabled = false;
    const os::IoOutcome outcome =
        os::retryRead(disk, 5, 1, out, clock, policy);
    EXPECT_EQ(outcome.status, DiskStatus::TransientError);
    EXPECT_EQ(outcome.retries, 0u);
}

TEST(IoRetryTest, AttemptBudgetBoundsPersistentTransientError)
{
    Disk disk = makeDisk();
    FailFirstN surface(1000);
    disk.setFaultSurface(&surface);
    SimClock clock;

    std::vector<u8> out(kSectorSize, 0);
    os::IoRetryPolicy policy;
    policy.maxAttempts = 3;
    const os::IoOutcome outcome =
        os::retryRead(disk, 5, 1, out, clock, policy);
    EXPECT_EQ(outcome.status, DiskStatus::TransientError);
    EXPECT_EQ(outcome.retries, 2u);
    EXPECT_EQ(disk.stats().transientErrors, 3u);
}

TEST(IoRetryTest, BadSectorRemapsOntoSpareAndReadsZeros)
{
    Disk disk = makeDisk();
    SimClock clock;

    std::vector<u8> payload(kSectorSize, 0x77);
    ASSERT_EQ(disk.write(40, 1, payload, clock), DiskStatus::Ok);
    disk.markBadSector(40);
    disk.setSpareSectors(4);

    std::vector<u8> out(kSectorSize, 0xff);
    EXPECT_EQ(disk.read(40, 1, out, clock), DiskStatus::BadSector);

    os::IoRetryPolicy policy;
    const os::IoOutcome outcome =
        os::retryRead(disk, 40, 1, out, clock, policy);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.remaps, 1u);
    EXPECT_FALSE(disk.sectorBad(40));
    EXPECT_EQ(disk.stats().sectorsRemapped, 1u);
    EXPECT_EQ(disk.spareSectors(), 3u);
    // The spare is fresh media: the old payload is gone for good.
    for (u64 i = 0; i < kSectorSize; ++i)
        ASSERT_EQ(out[i], 0) << "at byte " << i;
}

TEST(IoRetryTest, DrySparePoolAbandonsTheOp)
{
    Disk disk = makeDisk();
    SimClock clock;

    disk.markBadSector(50);
    disk.setSpareSectors(0);

    std::vector<u8> out(kSectorSize, 0);
    os::IoRetryPolicy policy;
    const os::IoOutcome outcome =
        os::retryRead(disk, 50, 1, out, clock, policy);
    EXPECT_EQ(outcome.status, DiskStatus::BadSector);
    EXPECT_EQ(outcome.remaps, 0u);
    EXPECT_TRUE(disk.sectorBad(50));
    EXPECT_GE(disk.stats().remapExhausted, 1u);
}

TEST(DiskFaultModelTest, ZeroIntensityIsInert)
{
    fault::DiskFaultModel model(support::Rng(3), {.intensity = 0.0});
    EXPECT_FALSE(model.enabled());
    Disk disk = makeDisk();
    model.install(disk);
    SimClock clock;
    std::vector<u8> out(kSectorSize, 0);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(disk.read(9, 1, out, clock), DiskStatus::Ok);
    disk.crashDropQueue(clock.now());
    EXPECT_EQ(disk.badSectorCount(), 0u);
    EXPECT_EQ(model.stats().transientReads, 0u);
    EXPECT_EQ(model.stats().crashDecays, 0u);
}

TEST(DiskFaultModelTest, CertainDecayMarksAndScribblesSectors)
{
    fault::DiskFaultConfig config;
    config.decayChance = 1.0;
    config.maxDecayPerCrash = 4;
    config.scribbleDecayed = true;
    fault::DiskFaultModel model(support::Rng(11), config);
    Disk disk = makeDisk();
    model.install(disk);
    EXPECT_EQ(disk.spareSectors(), config.spareSectors);

    SimClock clock;
    disk.crashDropQueue(clock.now());

    EXPECT_EQ(model.stats().crashDecays, 1u);
    EXPECT_GE(model.stats().sectorsDecayed, 1u);
    EXPECT_EQ(disk.badSectorCount(), model.stats().sectorsDecayed);
    // Latent bad sectors persist across warm reboots by construction
    // (the Disk is never reset); every access covering one fails
    // until remapped.
    bool sawBad = false;
    std::vector<u8> out(kSectorSize, 0);
    for (SectorNo s = 0; s < disk.numSectors() && !sawBad; ++s) {
        if (!disk.sectorBad(s))
            continue;
        sawBad = true;
        EXPECT_EQ(disk.read(s, 1, out, clock), DiskStatus::BadSector);
    }
    EXPECT_TRUE(sawBad);
}

TEST(DiskFaultModelTest, TransientRatesScaleWithIntensityDice)
{
    fault::DiskFaultConfig config;
    config.transientReadRate = 1.0;
    config.transientWriteRate = 0.0;
    config.decayChance = 0.0;
    fault::DiskFaultModel model(support::Rng(5), config);
    Disk disk = makeDisk();
    model.install(disk);
    SimClock clock;

    std::vector<u8> out(kSectorSize, 0);
    EXPECT_EQ(disk.read(3, 1, out, clock),
              DiskStatus::TransientError);
    EXPECT_GE(model.stats().transientReads, 1u);
    // Writes carry an independent (here zero) rate.
    std::vector<u8> payload(kSectorSize, 1);
    EXPECT_EQ(disk.write(3, 1, payload, clock), DiskStatus::Ok);
    EXPECT_EQ(model.stats().transientWrites, 0u);
}

namespace
{

class ReadOnlyDegradeTest : public ::testing::Test
{
  protected:
    ReadOnlyDegradeTest() : machine_(test::smallMachine())
    {
        kernel_ = std::make_unique<os::Kernel>(
            machine_, os::systemPreset(os::SystemPreset::UfsDelayAll));
        kernel_->boot(nullptr, true);
    }

    sim::Machine machine_;
    std::unique_ptr<os::Kernel> kernel_;
};

} // namespace

TEST_F(ReadOnlyDegradeTest, DegradeFailsMutationsKeepsReads)
{
    os::Ufs &ufs = kernel_->ufs();
    auto ino = ufs.create("/before", os::FileType::Regular);
    ASSERT_TRUE(ino.ok());

    ASSERT_FALSE(ufs.readOnly());
    ufs.degradeReadOnly();
    EXPECT_TRUE(ufs.readOnly());

    // Mutations now fail honestly instead of losing updates silently.
    auto denied = ufs.create("/after", os::FileType::Regular);
    EXPECT_FALSE(denied.ok());
    EXPECT_EQ(denied.status(), support::OsStatus::RoFs);

    // Everything already on disk or in cache stays readable.
    auto found = ufs.namei("/before");
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), ino.value());
}
