/**
 * @file
 * rio_inspector: the administrator's view of a running Rio system.
 *
 * Builds some file state, then walks the live registry and prints
 * what an operator (or the warm reboot) would see: per-page entries,
 * dirty/changing states, checksums, protection status, and the
 * machine's region map. Finally crashes the box and prints the same
 * view as the warm reboot parsed it from the post-crash memory — the
 * exact input its restore works from.
 */

#include <cstdio>
#include <map>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

const char *
stateName(u32 state)
{
    switch (state) {
      case core::RegistryLayout::kStateFree: return "free";
      case core::RegistryLayout::kStateActive: return "active";
      case core::RegistryLayout::kStateChanging: return "CHANGING";
    }
    return "?";
}

void
printRegistry(const core::RegistryImage &image)
{
    std::map<std::string, int> byKind;
    u64 dirtyPages = 0, dirtyBytes = 0;
    std::printf("  %-10s %-8s %-6s %-22s %8s %5s\n", "page", "kind",
                "state", "identity", "size", "dirty");
    int shown = 0;
    for (const auto &entry : image.entries) {
        ++byKind[entry.kind == core::RegistryLayout::kKindMetadata
                     ? "metadata"
                     : "data"];
        if (entry.dirty) {
            ++dirtyPages;
            dirtyBytes += entry.size;
        }
        if (shown < 12) { // Keep the demo readable.
            char identity[64];
            if (entry.kind == core::RegistryLayout::kKindMetadata) {
                std::snprintf(identity, sizeof identity,
                              "dev %u block %u", entry.dev,
                              entry.diskBlock);
            } else {
                std::snprintf(identity, sizeof identity,
                              "dev %u ino %u off %llu", entry.dev,
                              entry.ino,
                              static_cast<unsigned long long>(
                                  entry.offset));
            }
            std::printf("  0x%08llx %-8s %-6s %-22s %8u %5s\n",
                        static_cast<unsigned long long>(entry.physAddr),
                        entry.kind ==
                                core::RegistryLayout::kKindMetadata
                            ? "metadata"
                            : "data",
                        stateName(entry.state), identity, entry.size,
                        entry.dirty ? "yes" : "");
            ++shown;
        }
    }
    if (image.entries.size() > static_cast<std::size_t>(shown)) {
        std::printf("  ... and %zu more entries\n",
                    image.entries.size() - shown);
    }
    std::printf("  totals: %d data + %d metadata pages, %llu dirty "
                "(%llu KB to restore), %llu corrupt entries\n",
                byKind["data"], byKind["metadata"],
                static_cast<unsigned long long>(dirtyPages),
                static_cast<unsigned long long>(dirtyBytes >> 10),
                static_cast<unsigned long long>(image.corruptEntries));
}

} // namespace

int
main()
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 16ull << 20;
    machineConfig.kernelHeapBytes = 4ull << 20;
    machineConfig.bufPoolBytes = 1ull << 20;
    machineConfig.diskBytes = 64ull << 20;
    machineConfig.swapBytes = 16ull << 20;
    sim::Machine machine(machineConfig);

    std::puts("=== machine region map ===");
    for (const auto &region : machine.mem().regions()) {
        std::printf("  %-12s 0x%08llx + %6llu KB\n",
                    sim::regionKindName(region.kind),
                    static_cast<unsigned long long>(region.base),
                    static_cast<unsigned long long>(region.size >> 10));
    }

    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected),
                        {.maintainChecksums = true});
    system.boot(true);

    os::Process proc(1);
    auto &vfs = system.vfs();
    rio::wl::tolerate(vfs.mkdir("/projects"));
    std::vector<u8> data(20000, 0x41);
    for (int i = 0; i < 4; ++i) {
        auto fd = vfs.open(proc, "/projects/doc" + std::to_string(i),
                           os::OpenFlags::writeOnly());
        rio::wl::tolerate(vfs.write(proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(proc, fd.value()));
    }

    std::puts("\n=== live registry (running system) ===");
    printRegistry(core::parseRegistry(
        core::RecoveryImage(machine.mem().image(), machine.mem()),
        machine.mem()));

    const core::RioStats &stats = system.rio()->stats();
    std::printf("\nrio stats: %llu installs, %llu updates, %llu page "
                "opens, %llu shadow copies, ABOX mapKseg=%d\n",
                static_cast<unsigned long long>(stats.registryInstalls),
                static_cast<unsigned long long>(stats.registryUpdates),
                static_cast<unsigned long long>(stats.pageOpens),
                static_cast<unsigned long long>(stats.shadowCopies),
                machine.cpu().mapKsegThroughTlb() ? 1 : 0);

    // Crash and show the dump the warm reboot will analyze.
    try {
        machine.crash(sim::CrashCause::KernelPanic,
                      "inspector-induced crash");
    } catch (const sim::CrashException &crash) {
        std::printf("\n=== CRASH: %s ===\n", crash.what());
    }
    system.teardown();

    auto report = system.restoreMetadata();
    std::puts("\n=== registry as seen in the post-crash dump ===");
    printRegistry(system.warmReboot()->registryImage());

    std::printf("\nwarm reboot step 1: dumped %llu MB, restored %llu "
                "dirty metadata blocks (%llu from shadows)\n",
                static_cast<unsigned long long>(report.dumpBytes >> 20),
                static_cast<unsigned long long>(
                    report.metadataRestored),
                static_cast<unsigned long long>(
                    report.metadataFromShadow));

    system.boot(false);
    system.restoreData(report);
    std::printf("warm reboot step 2: restored %llu data pages "
                "(%llu KB) via normal writes\n",
                static_cast<unsigned long long>(
                    report.dataPagesRestored),
                static_cast<unsigned long long>(
                    report.dataBytesRestored >> 10));

    auto st = system.vfs().stat("/projects/doc3");
    std::printf("\n/projects/doc3 after recovery: %s, %llu bytes\n",
                st.ok() ? "present" : "MISSING",
                st.ok() ? static_cast<unsigned long long>(
                              st.value().size)
                        : 0ull);
    return st.ok() ? 0 : 1;
}
