#include "harness/oracle.hh"

#include <algorithm>
#include <unordered_map>

#include "core/nvmirror.hh"
#include "core/registry.hh"
#include "support/checksum.hh"

namespace rio::harness
{

using L = core::RegistryLayout;

std::vector<u8>
diskBlockBytes(sim::Machine &machine, u64 block)
{
    std::vector<u8> bytes;
    bytes.reserve(sim::kSectorsPerBlock * sim::kSectorSize);
    for (u64 s = 0; s < sim::kSectorsPerBlock; ++s) {
        const auto sector = machine.disk().peekSector(
            static_cast<SectorNo>(block * sim::kSectorsPerBlock + s));
        bytes.insert(bytes.end(), sector.begin(), sector.end());
    }
    return bytes;
}

namespace
{

/** Does the page at @p addr (clamped to the image) match @p entry's
 *  checksum? @p addr must already be known in-bounds. */
bool
sourceMatches(sim::Machine &machine,
              const core::RegistryEntry &entry, Addr addr)
{
    const auto image = machine.mem().image();
    const u64 n = std::min<u64>(entry.size, sim::kPageSize);
    return core::bindChecksum(
               support::checksum32(image.subspan(addr, n)),
               entry.diskBlock) == entry.checksum;
}

/**
 * rio-nv: would WarmReboot::stageNvShadow accept the NV mirror's
 * copy of @p entry's shadow page? Mirrors its conditions exactly.
 */
bool
nvShadowMatches(sim::Machine &machine,
                const core::RegistryEntry &entry,
                const core::NvMirrorGraft &graft)
{
    if (!graft.valid || entry.shadowAddr == 0 || entry.checksum == 0)
        return false;
    const auto &reg =
        machine.mem().region(sim::RegionKind::Registry);
    if (entry.shadowAddr < reg.base ||
        entry.shadowAddr + sim::kPageSize > reg.base + reg.size)
        return false;
    const u64 off = entry.shadowAddr - reg.base;
    const u64 n = std::min<u64>(entry.size, sim::kPageSize);
    return core::bindChecksum(
               support::checksum32(
                   std::span<const u8>(graft.body).subspan(off, n)),
               entry.diskBlock) == entry.checksum;
}

/**
 * Must @p policy refuse to restore @p entry? Mirrors the decision
 * procedure in WarmReboot::dumpAndRestoreMetadata; only refusals
 * driven by checksum verification freeze a block — bounds refusals
 * (insane addresses) also leave the block untouched but need no
 * byte-identity witness.
 */
bool
knownBad(sim::Machine &machine, const core::RegistryEntry &entry,
         const core::RestorePolicy &policy, bool contested,
         const core::NvMirrorGraft &graft)
{
    if (policy.rejectDuplicateClaims && contested)
        return true;
    if (entry.checksum == 0)
        return false;
    const u64 memSize = machine.mem().size();
    const auto inBounds = [&](Addr addr) {
        return addr + sim::kPageSize <= memSize;
    };
    if (entry.state == L::kStateChanging) {
        if (!policy.verifyShadowChecksums)
            return false; // Trusting restores the shadow unverified.
        bool checked = false;
        if (entry.shadowAddr != 0 && inBounds(entry.shadowAddr)) {
            checked = true;
            if (sourceMatches(machine, entry, entry.shadowAddr))
                return false;
        }
        if (inBounds(entry.physAddr)) {
            checked = true;
            if (sourceMatches(machine, entry, entry.physAddr))
                return false;
        }
        if (nvShadowMatches(machine, entry, graft))
            return false; // The NV mirror's shadow copy rescues it.
        return checked;
    }
    if (!policy.quarantineBadChecksums)
        return false;
    return inBounds(entry.physAddr) &&
           !sourceMatches(machine, entry, entry.physAddr);
}

} // namespace

OracleCapture
captureRecoveryOracle(sim::Machine &machine,
                      const core::RestorePolicy &policy)
{
    OracleCapture capture;
    auto &mem = machine.mem();
    // rio-nv: the warm reboot grafts the NV mirror into its view of
    // memory before scanning; predict its decisions by grafting the
    // same way (untimed — this capture must not perturb the clock).
    // Without an NV region the graft is a no-op.
    core::RecoveryImage image(mem.image(), mem);
    const core::NvMirrorGraft graft = core::graftNvMirror(
        machine, image, policy.quarantineBadChecksums, nullptr);
    const core::RegistryImage parsed = core::parseRegistry(image, mem);
    const u64 diskBlocks =
        machine.disk().numSectors() / sim::kSectorsPerBlock;

    std::unordered_map<u64, u32> claims;
    for (const core::RegistryEntry &entry : parsed.entries) {
        if (entry.kind == L::kKindMetadata && entry.dirty) {
            ++capture.dirtyMeta;
            ++claims[entry.diskBlock];
        }
    }
    for (const core::RegistryEntry &entry : parsed.entries) {
        if (entry.kind != L::kKindMetadata || !entry.dirty ||
            entry.diskBlock >= diskBlocks)
            continue;
        if (knownBad(machine, entry, policy,
                     claims[entry.diskBlock] > 1, graft)) {
            capture.frozen.push_back(
                {entry.diskBlock,
                 diskBlockBytes(machine, entry.diskBlock)});
        }
    }
    return capture;
}

OracleVerdict
checkRecoveryOracle(sim::Machine &machine,
                    const OracleCapture &capture,
                    const core::WarmRebootReport &report)
{
    OracleVerdict verdict;
    for (const FrozenBlock &f : capture.frozen) {
        if (diskBlockBytes(machine, f.block) != f.before)
            verdict.violatedBlocks.push_back(f.block);
    }
    verdict.accountingExact =
        report.metadataRestored +
            report.recovery.metadataQuarantined +
            report.recovery.duplicateClaims +
            report.metadataUnrestorable ==
        capture.dirtyMeta;
    return verdict;
}

} // namespace rio::harness
