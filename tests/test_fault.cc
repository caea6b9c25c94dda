/**
 * @file
 * Tests for the fault-injection framework: all 13 types inject
 * without host-level failures, manifestations execute causally, the
 * injector is deterministic, and the copy-overrun distribution
 * matches the paper's.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/injector.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"

#include "testbed.hh"

using namespace rio;

TEST(FaultModels, AllTypesHaveNames)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < fault::kNumFaultTypes; ++i)
        names.insert(
            fault::faultTypeName(static_cast<fault::FaultType>(i)));
    EXPECT_EQ(names.size(), fault::kNumFaultTypes);
}

TEST(FaultModels, ManifestationDrawIsMostlyBenign)
{
    support::Rng rng(5);
    const auto &weights =
        fault::manifestationWeights(fault::FaultType::BitFlipText);
    int benign = 0;
    const int trials = 5000;
    for (int i = 0; i < trials; ++i) {
        const os::Manifestation m =
            fault::drawManifestation(weights, rng);
        benign += m.kind == os::Manifestation::Kind::None;
    }
    // ~95% benign so that, with 20 faults per run, roughly half the
    // runs crash (the paper's discard rate).
    EXPECT_NEAR(static_cast<double>(benign) / trials, 0.955, 0.02);
}

TEST(FaultInjector, TextFaultFlipsRealTextBits)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::UfsDelayAll));
    kernel.boot(nullptr, true);
    const auto &text = machine.mem().region(sim::RegionKind::KernelText);
    std::vector<u8> before(machine.mem().raw() + text.base,
                           machine.mem().raw() + text.end());
    fault::FaultInjector injector(kernel, support::Rng(3));
    for (int i = 0; i < 20; ++i)
        injector.inject(fault::FaultType::BitFlipText);
    std::vector<u8> after(machine.mem().raw() + text.base,
                          machine.mem().raw() + text.end());
    EXPECT_NE(before, after);
    EXPECT_EQ(injector.stats().textBitsFlipped, 20u);
}

TEST(FaultInjector, HeapFaultCausallyCorruptsLiveStructures)
{
    // Flipping enough heap bits must eventually trip a kernel
    // consistency check through the normal code paths.
    bool crashed = false;
    for (u64 seed = 1; seed < 25 && !crashed; ++seed) {
        sim::Machine machine(test::smallMachine(seed));
        os::Kernel kernel(
            machine, os::systemPreset(os::SystemPreset::UfsDelayAll));
        kernel.boot(nullptr, true);
        wl::MemTestConfig config;
        config.seed = seed;
        wl::MemTest memtest(kernel, config);
        memtest.setup();
        fault::FaultInjector injector(kernel,
                                      support::Rng(seed * 7));
        try {
            for (int burst = 0; burst < 40; ++burst) {
                for (int i = 0; i < 20; ++i)
                    injector.inject(fault::FaultType::BitFlipHeap);
                for (int op = 0; op < 50; ++op)
                    memtest.step();
            }
        } catch (const sim::CrashException &e) {
            crashed = true;
            EXPECT_TRUE(
                e.cause() == sim::CrashCause::ConsistencyCheck ||
                e.cause() == sim::CrashCause::MachineCheck ||
                e.cause() == sim::CrashCause::KernelPanic ||
                e.cause() == sim::CrashCause::ProtectionFault);
        }
    }
    EXPECT_TRUE(crashed);
}

TEST(FaultInjector, EveryTypeInjectsWithoutHostFailure)
{
    for (std::size_t type = 0; type < fault::kNumFaultTypes; ++type) {
        sim::Machine machine(test::smallMachine(type + 1));
        os::Kernel kernel(
            machine, os::systemPreset(os::SystemPreset::UfsDelayAll));
        kernel.boot(nullptr, true);
        wl::MemTestConfig config;
        config.seed = type;
        wl::MemTest memtest(kernel, config);
        memtest.setup();
        fault::FaultInjector injector(kernel, support::Rng(type * 3));
        try {
            for (int i = 0; i < 20; ++i)
                injector.inject(static_cast<fault::FaultType>(type));
            for (int op = 0; op < 500; ++op)
                memtest.step();
        } catch (const sim::CrashException &) {
            // Crashing is fine; escaping std exceptions are not.
        }
    }
    SUCCEED();
}

TEST(FaultInjector, SameSeedSameOutcome)
{
    auto run = [](u64 seed) -> std::pair<bool, std::string> {
        sim::Machine machine(test::smallMachine(seed));
        os::Kernel kernel(
            machine, os::systemPreset(os::SystemPreset::UfsDelayAll));
        kernel.boot(nullptr, true);
        wl::MemTestConfig config;
        config.seed = 77;
        wl::MemTest memtest(kernel, config);
        memtest.setup();
        fault::FaultInjector injector(kernel, support::Rng(99));
        try {
            for (int i = 0; i < 20; ++i)
                injector.inject(fault::FaultType::PointerCorruption);
            for (int op = 0; op < 3000; ++op)
                memtest.step();
        } catch (const sim::CrashException &e) {
            return {true, e.what()};
        }
        return {false, ""};
    };
    const auto a = run(5);
    const auto b = run(5);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(KCopyFaults, OverrunLengthsFollowPaperDistribution)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(1));
    os::KCopy kcopy(machine, procs);
    machine.pageTable().initIdentity();
    support::Rng rng(123);
    kcopy.armOverrun(rng);

    // Copy into a scratch area prefilled with a sentinel; measure
    // how far each injected overrun scribbles.
    const Addr heap =
        machine.mem().region(sim::RegionKind::KernelHeap).base;
    std::vector<u8> payload(64, 0x10);
    u64 one = 0, medium = 0, large = 0, total = 0;
    for (int call = 0; call < 5000; ++call) {
        machine.bus().set(heap, 0xEE, 8192);
        kcopy.copyIn(heap, payload);
        u64 extra = 0;
        while (machine.mem().raw()[heap + 64 + extra] != 0xEE)
            ++extra;
        if (extra == 0)
            continue;
        ++total;
        if (extra == 1)
            ++one;
        else if (extra <= 1024)
            ++medium;
        else
            ++large;
    }
    ASSERT_GT(total, 5u);
    EXPECT_EQ(total, kcopy.overrunsInjected());
    EXPECT_NEAR(static_cast<double>(one) / total, 0.5, 0.25);
    EXPECT_GT(medium, 0u);
    // Large overruns are rare (6%) but nonzero is not guaranteed in
    // a small sample; just bound them.
    EXPECT_LE(large, total / 2);
}

TEST(KCopyFaults, OffByOneWritesExactlyOneExtraByte)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(1));
    os::KCopy kcopy(machine, procs);
    machine.pageTable().initIdentity();
    support::Rng rng(7);
    kcopy.armOffByOne(rng);

    // Most off-by-one firings overrun an internal (heap) buffer by
    // one element; a small minority overrun the copy destination by
    // exactly one byte. Hammer until we have seen a destination
    // overrun, and verify it is never more than one byte.
    const Addr heap =
        machine.mem().region(sim::RegionKind::KernelHeap).base;
    const Addr dst = heap + 512 * 1024; // Clear of the scribble span.
    std::vector<u8> payload(64, 0x10);
    bool sawOne = false;
    for (int call = 0; call < 60000 && !sawOne; ++call) {
        machine.bus().set(dst, 0xEE, 4096);
        kcopy.copyIn(dst, payload);
        if (machine.mem().raw()[dst + 64] != 0xEE) {
            EXPECT_EQ(machine.mem().raw()[dst + 65], 0xEE);
            sawOne = true;
        }
    }
    EXPECT_TRUE(sawOne);
}

TEST(KProc, WildStoreAddressesAreMostlyIllegal)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(2));
    support::Rng rng(55);
    int illegal = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        const Addr addr = procs.wildStoreAddr(rng);
        const Addr pa =
            sim::isKsegAddr(addr) ? sim::ksegToPhys(addr) : addr;
        // Out-of-range physical addresses machine-check on both the
        // mapped and the KSEG-bypass paths.
        if (pa >= machine.mem().size())
            ++illegal;
    }
    // Most wild pointers raise machine checks (64-bit space).
    EXPECT_GT(static_cast<double>(illegal) / trials, 0.7);
}

TEST(KProc, ManifestationsFireOnNextEnter)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(3));
    os::Manifestation m;
    m.kind = os::Manifestation::Kind::PanicNow;
    procs.arm(os::ProcId::UfsWriteFile, m);
    EXPECT_NO_THROW(procs.enter(os::ProcId::UfsReadFile));
    EXPECT_THROW(procs.enter(os::ProcId::UfsWriteFile),
                 sim::CrashException);
}

TEST(KProc, SkipWorkReportedToCaller)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(4));
    os::Manifestation m;
    m.kind = os::Manifestation::Kind::SkipWork;
    procs.arm(os::ProcId::KMalloc, m);
    EXPECT_TRUE(procs.enter(os::ProcId::KMalloc).skipBody);
    EXPECT_FALSE(procs.enter(os::ProcId::KMalloc).skipBody);
}

TEST(KProc, TextRangeMapsBackToProc)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(5));
    for (std::size_t p = 0; p < os::kNumProcs; p += 5) {
        const auto proc = static_cast<os::ProcId>(p);
        const auto [base, size] = procs.textRange(proc);
        EXPECT_EQ(procs.procForTextAddr(base), proc);
        EXPECT_EQ(procs.procForTextAddr(base + size - 1), proc);
    }
}

TEST(KProc, TraceRingRecordsRecentProcedures)
{
    sim::Machine machine(test::smallMachine());
    os::KProcTable procs(machine, support::Rng(6));
    EXPECT_TRUE(procs.recentTrace().empty());
    procs.enter(os::ProcId::VfsOpen);
    procs.enter(os::ProcId::UfsReadFile);
    procs.enter(os::ProcId::VfsClose);
    const auto trace = procs.recentTrace();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].proc, os::ProcId::VfsOpen);
    EXPECT_EQ(trace[2].proc, os::ProcId::VfsClose);

    // The ring keeps only the most recent entries, oldest first.
    for (int i = 0; i < 100; ++i)
        procs.enter(os::ProcId::KBcopy);
    procs.enter(os::ProcId::KFree);
    const auto full = procs.recentTrace();
    EXPECT_EQ(full.size(), 64u);
    EXPECT_EQ(full.back().proc, os::ProcId::KFree);
    EXPECT_EQ(full.front().proc, os::ProcId::KBcopy);
}

TEST(KHeapFaults, PrematureFreeArmsWithoutImmediateEffect)
{
    sim::Machine machine(test::smallMachine());
    os::Kernel kernel(machine,
                      os::systemPreset(os::SystemPreset::UfsDelayAll));
    kernel.boot(nullptr, true);
    support::Rng rng(6);
    EXPECT_NO_THROW(kernel.heap().armPrematureFree(rng));
}
