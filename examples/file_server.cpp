/**
 * @file
 * The departmental file server scenario (section 7): the authors ran
 * a real file server on Rio — kernel sources, this very paper, and
 * their mail — with reliability writes off. This example simulates a
 * year of that server's life: a steady stream of client requests,
 * an OS crash every two months (the paper's pessimistic estimate),
 * a warm reboot after each, and an audit of every stored file at the
 * end of the year. The client logic lives in wl::ServerClient,
 * shared with riobench's server op stream, and mirrors the actual
 * outcome of every system call into the ModelFs oracle so the audit
 * is exact.
 */

#include <cstdio>
#include <string>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/modelfs.hh"
#include "workload/script.hh"
#include "workload/serverclient.hh"

using namespace rio;

int
main()
{
    sim::MachineConfig machineConfig;
    machineConfig.physMemBytes = 32ull << 20;
    machineConfig.diskBytes = 256ull << 20;
    machineConfig.swapBytes = 32ull << 20;
    sim::Machine machine(machineConfig);

    core::System system(machine,
                        os::systemPreset(os::SystemPreset::RioProtected));
    system.boot(true);

    wl::ModelFs model;
    wl::ServerClient clients(wl::ServerClient::Config{}, 42);
    clients.createDirs(system.kernel());

    const int kCrashes = 6; // A year at one crash per two months.
    u64 requestsServed = 0;
    for (int epoch = 0; epoch <= kCrashes; ++epoch) {
        const int requests = 2000;
        for (int i = 0; i < requests; ++i) {
            clients.request(system.kernel(), model);
            ++requestsServed;
        }
        if (epoch == kCrashes)
            break;

        try {
            machine.crash(sim::CrashCause::KernelPanic,
                          "panic: bimonthly OS crash #" +
                              std::to_string(epoch + 1));
        } catch (const sim::CrashException &crash) {
            std::printf("[month %2d] %s\n", (epoch + 1) * 2,
                        crash.what());
        }
        system.teardown();
        const auto report = system.recover();
        std::printf("           warm reboot: %llu metadata blocks, "
                    "%llu data pages restored\n",
                    static_cast<unsigned long long>(
                        report.metadataRestored),
                    static_cast<unsigned long long>(
                        report.dataPagesRestored));
    }

    // Year-end audit: every mailbox and document intact?
    const auto audit = clients.audit(system.kernel(), model);

    std::printf("\nyear summary: %llu requests served, %d crashes "
                "survived\n",
                static_cast<unsigned long long>(requestsServed),
                kCrashes);
    std::printf("audit: %llu files intact, %llu damaged, %llu "
                "reliability disk writes during service\n",
                static_cast<unsigned long long>(audit.intact),
                static_cast<unsigned long long>(audit.damaged),
                0ull);
    if (clients.readMismatches() != 0) {
        std::printf("audit: %llu read-time mismatches\n",
                    static_cast<unsigned long long>(
                        clients.readMismatches()));
        return 1;
    }
    return audit.damaged == 0 ? 0 : 1;
}
