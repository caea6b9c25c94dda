/**
 * @file
 * Harness configuration: experiment scales and the RIO_* environment
 * knobs, so the same binaries run at CI speed by default and at paper
 * scale on demand.
 *
 * Every knob is declared once, in knobTable() (hconfig.cc), with the
 * binaries that read it, its defaults and a line of help. The config
 * structs (CampaignConfig, CrashMcConfig, PerfConfig) are plain
 * values: only the binaries that document a knob read it, through
 * the readers below, so a test, an ablation or an example gets
 * exactly the config it writes.
 *
 * A binary that reads a knob first rejects every RIO_ variable the
 * table does not name. A knob that is set must parse cleanly:
 * numbers are plain decimals that fit the field they fill (after any
 * scaling to nanoseconds or bytes), switches are exactly 0 or 1.
 * Anything else throws instead of running a vacuous experiment.
 *
 * Same seed + same config produce bit-identical campaign results and
 * JSONL records at any RIO_T1_JOBS value: every trial derives its
 * own seed purely from (seed, system, fault, trial) and results are
 * merged by cell index, never by completion order.
 */

#ifndef RIO_HARNESS_HCONFIG_HH
#define RIO_HARNESS_HCONFIG_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/config.hh"
#include "support/types.hh"

namespace rio::harness
{

struct CampaignConfig;
struct CrashMcConfig;
struct PerfConfig;

struct Knob
{
    const char *name;
    const char *readBy;   ///< The binaries that read it.
    const char *defaults; ///< Per binary where they differ.
    const char *help;
};

/** Every knob any binary reads. */
std::span<const Knob> knobTable();

/** Throw std::invalid_argument naming the first RIO_ variable in the
 *  environment that knobTable() does not declare. */
void rejectUnknownKnobs();

/** @{ rejectUnknownKnobs(), then one config's knobs applied over its
 *  defaults. */
CampaignConfig campaignConfigFromEnv();
CrashMcConfig crashMcConfigFromEnv();
PerfConfig perfConfigFromEnv();
/** @} */

/** What the crash-trial ablations (recovery, diskfault, nv, shadow)
 *  read from the environment; ablation_shadow runs serially. */
struct AblationKnobs
{
    u64 seed;
    u32 trials; ///< Per arm, at least 1.
    u32 jobs;   ///< 0 = all hardware threads.
};

/** rejectUnknownKnobs(), then RIO_SEED, RIO_ABL_TRIALS (@p trials
 *  when unset) and RIO_T1_JOBS. */
AblationKnobs ablationKnobsFromEnv(u32 trials);

/**
 * @{ Environment knobs. Unset (or empty) uses the fallback; anything
 * else must parse cleanly, or the read throws std::invalid_argument
 * naming the knob and the remedy instead of silently running at
 * whatever strtoull salvaged — a night of trials at the wrong thread
 * or trial count is worth failing loudly over.
 */
[[noreturn]] inline void
rejectEnv(const char *name, const char *value,
          const std::string &expected)
{
    throw std::invalid_argument(std::string(name) + "=\"" + value +
                                "\" is not " + expected +
                                "; unset it for the default");
}

/**
 * A clean non-negative decimal number in [@p minValue, @p maxValue]:
 * digits only, so no sign, blank or hex prefix that strtoull would
 * skip or read. A knob that is narrowed or scaled passes the largest
 * value that still fits, so it cannot truncate or wrap.
 */
inline u64
envU64(const char *name, u64 fallback, u64 minValue = 0,
       u64 maxValue = std::numeric_limits<u64>::max())
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*value)) ||
        *end != '\0' || errno == ERANGE)
        rejectEnv(name, value, "a non-negative decimal number");
    if (parsed < minValue)
        rejectEnv(name, value,
                  "a number of at least " + std::to_string(minValue));
    if (parsed > maxValue)
        rejectEnv(name, value,
                  "a number of at most " + std::to_string(maxValue));
    return parsed;
}

/** envU64 for a knob held in a u32. */
inline u32
envU32(const char *name, u32 fallback, u32 minValue = 0)
{
    return static_cast<u32>(envU64(name, fallback, minValue,
                                   std::numeric_limits<u32>::max()));
}

/** envU64 for a knob counted in units of @p unit (seconds, MiB):
 * returns value * unit, rejecting a value whose product overflows. */
inline u64
envScaled(const char *name, u64 fallback, u64 unit)
{
    return envU64(name, fallback, 0,
                  std::numeric_limits<u64>::max() / unit) *
           unit;
}

/** Exactly "0" or "1". */
inline bool
envBool(const char *name, bool fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    const std::string text(value);
    if (text != "0" && text != "1")
        rejectEnv(name, value, "0 or 1");
    return text == "1";
}

/**
 * A finite decimal number in [@p minValue, @p maxValue] with nothing
 * before or after it: no blank, no '+' and no hex, which strtod would
 * all take. Intensities and rates are never negative; a rate passes
 * 1 as its maximum.
 */
inline double
envF64(const char *name, double fallback, double minValue = 0.0,
       double maxValue = std::numeric_limits<double>::infinity())
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    const bool plain =
        (std::isdigit(static_cast<unsigned char>(*value)) ||
         *value == '.' || *value == '-') &&
        std::strpbrk(value, "xX") == nullptr;
    if (!plain || end == value || *end != '\0' || !std::isfinite(parsed))
        rejectEnv(name, value, "a finite number");
    if (parsed < minValue || parsed > maxValue) {
        char range[64];
        std::snprintf(range, sizeof range, "a number in [%g, %g]",
                      minValue, maxValue);
        rejectEnv(name, value, range);
    }
    return parsed;
}
/** @} */

inline std::string
envStr(const char *name, const char *fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return value;
}

/** Machine used for crash testing (paper: DEC 3000/600, 128 MB). */
inline sim::MachineConfig
crashMachineConfig(u64 seed)
{
    sim::MachineConfig config;
    config.physMemBytes = 32ull << 20;
    config.diskBytes = 48ull << 20;
    // One megabyte beyond physical memory: the full dump always fits
    // *and* the re-entrant warm reboot has room for its progress
    // record past the dump (core/warmreboot.hh).
    config.swapBytes = 33ull << 20;
    config.seed = seed;
    return config;
}

/** rio-nv: fit @p config with an NV region of 1/16th of physical
 *  memory, room for the registry mirror (the RioSystem constructor
 *  checks that it fits). */
inline void
fitNvRegion(sim::MachineConfig &config)
{
    config.nvBytes = config.physMemBytes / 16;
}

/** Machine used for the performance experiments. */
inline sim::MachineConfig
perfMachineConfig(u64 seed)
{
    sim::MachineConfig config;
    config.physMemBytes = 128ull << 20;
    config.diskBytes = 256ull << 20;
    config.swapBytes = 128ull << 20;
    config.seed = seed;
    return config;
}

} // namespace rio::harness

#endif // RIO_HARNESS_HCONFIG_HH
