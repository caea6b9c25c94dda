/**
 * @file
 * The small machine most unit tests boot, the Rio preset under any
 * protection mode, and a platter fingerprint for byte-identity checks.
 */

#ifndef RIO_TESTS_TESTBED_HH
#define RIO_TESTS_TESTBED_HH

#include "os/kconfig.hh"
#include "sim/machine.hh"
#include "support/checksum.hh"

namespace rio::test
{

/** 16 MB of memory (4 MB kernel heap, 1 MB buffer pool), a 64 MB
 *  disk and 16 MB of swap: a full dump fits, a warm-reboot progress
 *  record past it does not. */
inline sim::MachineConfig
smallMachine(u64 seed = 1)
{
    sim::MachineConfig c;
    c.physMemBytes = 16ull << 20;
    c.kernelHeapBytes = 4ull << 20;
    c.bufPoolBytes = 1ull << 20;
    c.diskBytes = 64ull << 20;
    c.swapBytes = 16ull << 20;
    c.seed = seed;
    return c;
}

/** The Rio-with-protection preset under protection @p mode. */
inline os::KernelConfig
rioPreset(os::ProtectionMode mode)
{
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    config.protection = mode;
    return config;
}

/** Checksum of the whole platter. */
inline u64
platterFingerprint(const sim::Disk &disk)
{
    u64 sum = 0;
    for (SectorNo s = 0; s < disk.numSectors(); ++s) {
        sum = sum * 1099511628211ull +
              support::checksum32(disk.peekSector(s));
    }
    return sum;
}

} // namespace rio::test

#endif // RIO_TESTS_TESTBED_HH
