#include "sim/membus.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "sim/audit.hh"

namespace rio::sim
{

namespace
{

/**
 * Fault-message formatter for the cold paths. Produces exactly what
 * `ostream << "..." << std::hex << va` used to (lowercase, no
 * leading zeros) — these strings end up in campaign JSONL records,
 * so they must stay byte-identical — without dragging ostringstream
 * construction into code reachable from the store fast path.
 */
std::string
faultMessage(const char *prefix, Addr va)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s0x%llx", prefix,
                  static_cast<unsigned long long>(va));
    return buf;
}

} // namespace

MemBus::MemBus(PhysMem &mem, PageTable &pt, Tlb &tlb, Cpu &cpu,
               SimClock &clock, const CostModel &costs)
    : mem_(mem), pt_(pt), tlb_(tlb), cpu_(cpu), clock_(clock),
      costs_(costs)
{}

void
MemBus::machineCheck(Addr va)
{
    ++stats_.machineChecks;
    throw CrashException(CrashCause::MachineCheck,
                         faultMessage("illegal address ", va),
                         clock_.now());
}

void
MemBus::protectionFault(Addr va)
{
    ++stats_.protectionFaults;
    if (policy_)
        policy_->onProtectionStop(va);
    throw CrashException(CrashCause::ProtectionFault,
                         faultMessage("write to protected address ", va),
                         clock_.now());
}

Addr
MemBus::translateMapped(Addr va, bool write, Addr orig)
{
    // Bound against the page table's VA space, not physical memory:
    // a small-RAM config may still map virtual pages above the top
    // of RAM (MachineConfig::vaSpacePages).
    const u64 vpn = va >> kPageShift;
    if (vpn >= pt_.numPages())
        machineCheck(orig);

    Pte pte;
    if (const Pte *cached = tlb_.lookup(vpn)) {
        tlb_.noteHit();
        pte = *cached;
    } else {
        tlb_.noteMiss();
        clock_.advance(costs_.tlbMissNs);
        pte = pt_.read(vpn);
        tlb_.fill(vpn, pte);
    }

    if (!pte.valid)
        machineCheck(orig);
    if (write && !pte.writable)
        protectionFault(orig);

    const Addr pa = (pte.pfn << kPageShift) | (va & (kPageSize - 1));
    if (pa >= mem_.size())
        machineCheck(orig); // Corrupted PTE redirected us off the end.
    return pa;
}

SimNs
MemBus::kernelNs(SimNs ns) const
{
    if (!codePatching_)
        return ns;
    return static_cast<SimNs>(
        static_cast<double>(ns) *
        (1.0 + costs_.patchKernelCpuOverhead));
}

void
MemBus::patchCheck(Addr pa, u64 store_count)
{
    if (!codePatching_)
        return;
    clock_.advance(static_cast<SimNs>(costs_.patchCheckNsPerStore *
                                      costs_.patchCheckedFraction *
                                      static_cast<double>(store_count)));
    if (policy_ && policy_->patchCheckBlocksStore(pa))
        protectionFault(pa);
}

void
MemBus::armWatch(AccessWatch &watch, AccessWatch::Window loads,
                 AccessWatch::Window stores)
{
    watch_ = &watch;
    loadWatch_ = loads;
    storeWatch_ = stores;
}

void
MemBus::disarmWatch()
{
    watch_ = nullptr;
    loadWatch_ = {};
    storeWatch_ = {};
}

void
MemBus::noteDeviceWrite(Addr pa, u64 len)
{
    while (len != 0) {
        const u64 chunk =
            std::min(len, kPageSize - (pa & (kPageSize - 1)));
        checkStore(pa, chunk);
        pa += chunk;
        len -= chunk;
    }
}

bool
MemBus::watches(Addr pa, u64 len) const
{
    if (len == 0)
        return false;
    const u64 last = (pa + len - 1) >> kPageShift;
    for (u64 page = pa >> kPageShift; page <= last; ++page) {
        const u64 slot = page - storeWatch_.first;
        if (slot < storeWatch_.marks.size() && storeWatch_.marks[slot])
            return true;
    }
    return false;
}

void
MemBus::auditStore(Addr pa, u64 len)
{
    if (audit_)
        audit_->onStore(pa, len, clock_.now());
}

u8
MemBus::load8(Addr va)
{
    ++stats_.loads;
    clock_.advance(kernelNs(costs_.memAccessNs));
    const Addr pa = translate(va, false);
    checkLoad(pa, 1);
    return mem_.raw()[pa];
}

u16
MemBus::load16(Addr va)
{
    assert(va % 2 == 0);
    ++stats_.loads;
    clock_.advance(kernelNs(costs_.memAccessNs));
    u16 value;
    const Addr pa = translate(va, false);
    checkLoad(pa, 2);
    std::memcpy(&value, mem_.raw() + pa, 2);
    return value;
}

u32
MemBus::load32(Addr va)
{
    assert(va % 4 == 0);
    ++stats_.loads;
    clock_.advance(kernelNs(costs_.memAccessNs));
    u32 value;
    const Addr pa = translate(va, false);
    checkLoad(pa, 4);
    std::memcpy(&value, mem_.raw() + pa, 4);
    return value;
}

u64
MemBus::load64(Addr va)
{
    assert(va % 8 == 0);
    ++stats_.loads;
    clock_.advance(kernelNs(costs_.memAccessNs));
    u64 value;
    const Addr pa = translate(va, false);
    checkLoad(pa, 8);
    std::memcpy(&value, mem_.raw() + pa, 8);
    return value;
}

void
MemBus::store8(Addr va, u8 value)
{
    ++stats_.stores;
    clock_.advance(kernelNs(costs_.memAccessNs));
    const Addr pa = translate(va, true);
    patchCheck(pa, 1);
    checkStore(pa, 1);
    auditStore(pa, 1);
    mem_.raw()[pa] = value;
    hook_.emit(EventKind::CheckedStore, pa, 1);
}

void
MemBus::store16(Addr va, u16 value)
{
    assert(va % 2 == 0);
    ++stats_.stores;
    clock_.advance(kernelNs(costs_.memAccessNs));
    const Addr pa = translate(va, true);
    patchCheck(pa, 1);
    checkStore(pa, 2);
    auditStore(pa, 2);
    std::memcpy(mem_.raw() + pa, &value, 2);
    hook_.emit(EventKind::CheckedStore, pa, 2);
}

void
MemBus::store32(Addr va, u32 value)
{
    assert(va % 4 == 0);
    ++stats_.stores;
    clock_.advance(kernelNs(costs_.memAccessNs));
    const Addr pa = translate(va, true);
    patchCheck(pa, 1);
    checkStore(pa, 4);
    auditStore(pa, 4);
    std::memcpy(mem_.raw() + pa, &value, 4);
    hook_.emit(EventKind::CheckedStore, pa, 4);
}

void
MemBus::store64(Addr va, u64 value)
{
    assert(va % 8 == 0);
    ++stats_.stores;
    clock_.advance(kernelNs(costs_.memAccessNs));
    const Addr pa = translate(va, true);
    patchCheck(pa, 1);
    checkStore(pa, 8);
    auditStore(pa, 8);
    std::memcpy(mem_.raw() + pa, &value, 8);
    hook_.emit(EventKind::CheckedStore, pa, 8);
}

void
MemBus::readBytes(Addr va, std::span<u8> out)
{
    clock_.advance(kernelNs(
        static_cast<SimNs>(costs_.copyNsPerByte * out.size())));
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr cur = va + done;
        const u64 in_page = kPageSize - (cur & (kPageSize - 1));
        const u64 chunk =
            std::min<u64>(in_page, out.size() - done);
        ++stats_.loads;
        const Addr pa = translate(cur, false);
        checkLoad(pa, chunk);
        std::memcpy(out.data() + done, mem_.raw() + pa, chunk);
        done += chunk;
    }
    stats_.bytesCopied += out.size();
}

void
MemBus::writeBytes(Addr va, std::span<const u8> in)
{
    clock_.advance(kernelNs(
        static_cast<SimNs>(costs_.copyNsPerByte * in.size())));
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr cur = va + done;
        const u64 in_page = kPageSize - (cur & (kPageSize - 1));
        const u64 chunk = std::min<u64>(in_page, in.size() - done);
        ++stats_.stores;
        const Addr pa = translate(cur, true);
        patchCheck(pa, (chunk + 7) / 8);
        checkStore(pa, chunk);
        auditStore(pa, chunk);
        std::memcpy(mem_.raw() + pa, in.data() + done, chunk);
        hook_.emit(EventKind::CheckedStore, pa, chunk);
        done += chunk;
    }
    stats_.bytesCopied += in.size();
}

void
MemBus::copy(Addr dst, Addr src, u64 n)
{
    clock_.advance(
        kernelNs(static_cast<SimNs>(costs_.copyNsPerByte * n)));
    u64 done = 0;
    while (done < n) {
        const Addr s = src + done;
        const Addr d = dst + done;
        const u64 in_src = kPageSize - (s & (kPageSize - 1));
        const u64 in_dst = kPageSize - (d & (kPageSize - 1));
        const u64 chunk = std::min({in_src, in_dst, n - done});
        ++stats_.loads;
        const Addr spa = translate(s, false);
        ++stats_.stores;
        const Addr dpa = translate(d, true);
        patchCheck(dpa, (chunk + 7) / 8);
        checkLoad(spa, chunk);
        checkStore(dpa, chunk);
        auditStore(dpa, chunk);
        std::memmove(mem_.raw() + dpa, mem_.raw() + spa, chunk);
        hook_.emit(EventKind::CheckedStore, dpa, chunk);
        done += chunk;
    }
    stats_.bytesCopied += n;
}

void
MemBus::set(Addr dst, u8 value, u64 n)
{
    clock_.advance(
        kernelNs(static_cast<SimNs>(costs_.copyNsPerByte * n)));
    u64 done = 0;
    while (done < n) {
        const Addr cur = dst + done;
        const u64 in_page = kPageSize - (cur & (kPageSize - 1));
        const u64 chunk = std::min<u64>(in_page, n - done);
        ++stats_.stores;
        const Addr pa = translate(cur, true);
        patchCheck(pa, (chunk + 7) / 8);
        checkStore(pa, chunk);
        auditStore(pa, chunk);
        std::memset(mem_.raw() + pa, value, chunk);
        hook_.emit(EventKind::CheckedStore, pa, chunk);
        done += chunk;
    }
    stats_.bytesCopied += n;
}

} // namespace rio::sim
