#include "core/registry.hh"

#include <algorithm>
#include <cassert>

#include "support/bytes.hh"

namespace rio::core
{

namespace
{

template <typename T>
T
get(std::span<const u8> raw, u64 off)
{
    return support::loadLE<T>(raw, off);
}

} // namespace

std::optional<RegistryEntry>
decodeRegistryEntry(std::span<const u8> raw)
{
    using L = RegistryLayout;
    if (get<u32>(raw, L::kOffMagic) != L::kMagic)
        return std::nullopt;
    RegistryEntry entry;
    entry.state = get<u32>(raw, L::kOffState);
    entry.physAddr = get<u64>(raw, L::kOffPhysAddr);
    entry.kind = get<u32>(raw, L::kOffKind);
    entry.dev = get<u32>(raw, L::kOffDev);
    entry.ino = get<u32>(raw, L::kOffIno);
    entry.offset = get<u64>(raw, L::kOffOffset);
    entry.diskBlock = get<u32>(raw, L::kOffDiskBlock);
    entry.size = get<u32>(raw, L::kOffSize);
    entry.dirty = get<u32>(raw, L::kOffDirty) != 0;
    entry.checksum = get<u32>(raw, L::kOffChecksum);
    entry.shadowAddr = get<u64>(raw, L::kOffShadow);
    return entry;
}

RecoveryImage::RecoveryImage(std::span<const u8> bytes,
                             const sim::PhysMem &mem)
    : bytes_(bytes),
      regBase_(mem.region(sim::RegionKind::Registry).base),
      regSize_(mem.region(sim::RegionKind::Registry).size)
{
    assert(regBase_ + regSize_ <= bytes_.size());
}

std::span<const u8>
RecoveryImage::bytes(Addr addr, u64 n) const
{
    assert(addr <= size() && n <= size() - addr);
    const Addr regEnd = regBase_ + regCopy_.size();
    if (regCopy_.empty() || addr + n <= regBase_ || addr >= regEnd)
        return bytes_.subspan(addr, n);
    if (addr >= regBase_ && addr + n <= regEnd)
        return std::span<const u8>(regCopy_).subspan(addr - regBase_, n);
    // Straddles an edge of the copy: the image, then the copy over it.
    scratch_.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(addr),
                    bytes_.begin() + static_cast<std::ptrdiff_t>(addr + n));
    const Addr lo = std::max(addr, regBase_);
    const Addr hi = std::min(addr + n, regEnd);
    std::copy(regCopy_.begin() + static_cast<std::ptrdiff_t>(lo - regBase_),
              regCopy_.begin() + static_cast<std::ptrdiff_t>(hi - regBase_),
              scratch_.begin() + static_cast<std::ptrdiff_t>(lo - addr));
    return scratch_;
}

std::span<const u8>
RecoveryImage::registry() const
{
    if (!regCopy_.empty())
        return regCopy_;
    return bytes_.subspan(regBase_, regSize_);
}

std::span<u8>
RecoveryImage::writableRegistry()
{
    if (regCopy_.empty()) {
        const auto region = bytes_.subspan(regBase_, regSize_);
        regCopy_.assign(region.begin(), region.end());
    }
    return regCopy_;
}

RegistryImage
parseRegistry(const RecoveryImage &memImage, const sim::PhysMem &mem)
{
    using L = RegistryLayout;
    RegistryImage image;

    const auto &reg = mem.region(sim::RegionKind::Registry);
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    const u64 entryCount = buf.pages() + ubc.pages();

    auto pageOk = [&](Addr pa) {
        if ((pa & (sim::kPageSize - 1)) != 0)
            return false;
        return buf.contains(pa) || ubc.contains(pa);
    };

    const auto entries = memImage.registry();
    for (u64 i = 0; i < entryCount; ++i) {
        const u64 off = i * L::kEntrySize;
        if (off + L::kEntrySize > entries.size())
            break;
        auto raw = entries.subspan(off, L::kEntrySize);
        const u32 magic = get<u32>(raw, L::kOffMagic);
        if (magic == 0) {
            ++image.freeEntries;
            continue;
        }
        auto decoded = decodeRegistryEntry(raw);
        if (!decoded) {
            ++image.corruptEntries;
            continue;
        }
        RegistryEntry &entry = *decoded;
        const bool stateOk = entry.state == L::kStateActive ||
                             entry.state == L::kStateChanging;
        const bool kindOk = entry.kind == L::kKindData ||
                            entry.kind == L::kKindMetadata;
        if (!stateOk || !kindOk || !pageOk(entry.physAddr) ||
            entry.size > sim::kPageSize) {
            ++image.corruptEntries;
            continue;
        }
        if (entry.state == L::kStateChanging && entry.shadowAddr != 0 &&
            !reg.contains(entry.shadowAddr)) {
            ++image.corruptEntries;
            continue;
        }
        image.entries.push_back(entry);
    }
    return image;
}

} // namespace rio::core
