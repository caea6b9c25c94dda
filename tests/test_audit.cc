/**
 * @file
 * The dynamic counterpart of riolint's R1: with the store audit
 * armed, MemBus cross-checks every store against the PhysMem region
 * map. A wild store into a protected region (Registry, BufPool,
 * UbcPool) outside an open write window is caught at runtime and
 * attributed to the kernel procedure that issued it — the runtime
 * analogue of Rio's protection fault, but for builds where the page
 * protection is off.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/audit.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

#include "testbed.hh"

using namespace rio;

namespace
{

struct Rig
{
    explicit Rig(os::ProtectionMode protection)
        : machine(test::smallMachine()),
          system(machine, test::rioPreset(protection))
    {
        // Arm the audit before Rio activates so the registry-zeroing
        // allow scope and the first page windows are all tracked.
        audit = &machine.enableStoreAudit();
        system.boot(true);
    }

    void
    writeWorkload()
    {
        auto &vfs = system.vfs();
        std::vector<u8> data(16 * 1024, 0x3e);
        for (int i = 0; i < 8; ++i) {
            auto fd = vfs.open(proc, "/f" + std::to_string(i),
                               os::OpenFlags::writeOnly());
            rio::wl::tolerate(vfs.write(proc, fd.value(), data));
            rio::wl::tolerate(vfs.close(proc, fd.value()));
        }
    }

    sim::Machine machine;
    sim::StoreAudit *audit = nullptr;
    core::System system;
    os::Process proc{1};
};

} // namespace

TEST(StoreAudit, LegitimateOperationsProduceNoViolations)
{
    Rig rig(os::ProtectionMode::VmTlb);
    rig.writeWorkload();
    rig.system.kernel().ufs().syncAll(true);

    EXPECT_GT(rig.audit->storesAudited(), 0u);
    // The workload really did store into the protected pools — all
    // of it through open write windows.
    EXPECT_GT(rig.audit->storesInto(sim::RegionKind::BufPool) +
                  rig.audit->storesInto(sim::RegionKind::UbcPool),
              0u);
    for (const auto &v : rig.audit->violations())
        ADD_FAILURE() << sim::StoreAudit::describe(v);
    EXPECT_EQ(rig.audit->violationsSuppressed(), 0u);
}

TEST(StoreAudit, WildStoreIntoRegistryIsCaughtAndAttributed)
{
    // Protection off: the store is not trapped by the VM mechanism,
    // so the audit is the only thing watching — exactly the
    // configuration the paper calls "Mem" (unprotected memory).
    Rig rig(os::ProtectionMode::Off);
    rig.writeWorkload();
    rig.audit->clearViolations();

    // A syscall leaves the per-procedure trace pointing at the last
    // kernel procedure entered (stat releases its buffers last)...
    rio::wl::tolerate(rig.system.kernel().vfs().stat("/f0"));
    const std::string actor = rig.audit->actor();
    EXPECT_FALSE(actor.empty());
    // ...and then that "procedure" scribbles on a registry entry.
    const auto &registry =
        rig.machine.mem().region(sim::RegionKind::Registry);
    const Addr target = registry.base + 24;
    rig.machine.bus().store64(target, 0xdeadbeefdeadbeefull);

    ASSERT_EQ(rig.audit->violations().size(), 1u);
    const sim::AuditViolation &v = rig.audit->violations().front();
    EXPECT_EQ(v.pa, target);
    EXPECT_EQ(v.len, 8u);
    EXPECT_EQ(v.region, sim::RegionKind::Registry);
    // Attribution: the store is pinned on the executing procedure.
    EXPECT_EQ(v.actor, actor);
    const std::string report = sim::StoreAudit::describe(v);
    EXPECT_NE(report.find(actor), std::string::npos);
    EXPECT_NE(report.find("registry"), std::string::npos);
}

TEST(StoreAudit, WildStoreIntoBufPoolIsCaught)
{
    Rig rig(os::ProtectionMode::Off);
    rig.writeWorkload();
    rig.audit->clearViolations();

    const auto &pool =
        rig.machine.mem().region(sim::RegionKind::BufPool);
    rig.machine.bus().store32(pool.base + 4096, 0x41414141u);

    ASSERT_EQ(rig.audit->violations().size(), 1u);
    EXPECT_EQ(rig.audit->violations().front().region,
              sim::RegionKind::BufPool);
}

TEST(StoreAudit, StoresIntoUnprotectedRegionsPass)
{
    Rig rig(os::ProtectionMode::Off);
    rig.audit->clearViolations();
    const auto &heap =
        rig.machine.mem().region(sim::RegionKind::KernelHeap);
    rig.machine.bus().store64(heap.base + 64, 1);
    EXPECT_TRUE(rig.audit->violations().empty());
}

TEST(StoreAudit, ResetRestartsTheWindowProtocol)
{
    Rig rig(os::ProtectionMode::Off);
    rig.writeWorkload();
    rig.system.crash("test");
    rig.audit->clearViolations();

    // After reset, no window is open: a bare store into the pool is
    // a violation even though windows were open before the crash.
    const auto &pool =
        rig.machine.mem().region(sim::RegionKind::BufPool);
    rig.machine.bus().store8(pool.base, 0xff);
    EXPECT_EQ(rig.audit->violations().size(), 1u);
}

TEST(StoreAudit, ComposesWithCheckedStoreEventsAndDetachesClean)
{
    // The crashmc recording hook and the runtime store audit watch
    // the same checked-store path and must not disturb each other:
    // the audit sees every store (and still attributes violations)
    // while a subscriber is attached, and dropping the subscription
    // reverts the bus to the one-branch path with no residue.
    Rig rig(os::ProtectionMode::Off);
    const auto &pool =
        rig.machine.mem().region(sim::RegionKind::BufPool);

    u64 total = 0;
    u64 inRegion = 0;
    {
        const auto counter = rig.machine.subscribe(
            [&](const sim::Event &event) {
                ++total;
                if (event.a >= pool.base && event.a < pool.end())
                    ++inRegion;
            },
            sim::eventBit(sim::EventKind::CheckedStore));
        rig.audit->clearViolations();

        rig.writeWorkload();
        EXPECT_GT(total, 0u);
        EXPECT_GT(inRegion, 0u);
        EXPECT_TRUE(rig.audit->violations().empty());

        // A wild store reaches both: the audit flags it, the
        // subscriber still counts it (it fires post-store,
        // independent of verdict).
        const u64 before = inRegion;
        rig.machine.bus().store8(pool.base, 0xff);
        EXPECT_EQ(rig.audit->violations().size(), 1u);
        EXPECT_EQ(inRegion, before + 1);
    }

    // Detached: stores keep flowing, the count freezes, and the
    // machine takes a new subscriber, one at a time.
    const u64 frozen = total;
    rig.machine.bus().store8(pool.base + 1, 0x00);
    EXPECT_EQ(total, frozen);
    const auto again = rig.machine.subscribe([](const sim::Event &) {});
    EXPECT_THROW((void)rig.machine.subscribe([](const sim::Event &) {}),
                 std::logic_error);
}
