/**
 * @file
 * Tiny JSON emitter for the BENCH_*.json performance trajectory.
 * Every bench binary that contributes a point to the trajectory
 * (ablation_nv, and riobench's result JSON) renders its results
 * through this one helper so the files stay uniform: a flat envelope
 * `{"bench": ..., "schema": ..., ...sections...}` with insertion-
 * ordered keys, no host timestamps (so committed artifacts diff
 * meaningfully), and a trailing newline.
 */

#ifndef RIO_BENCH_EMIT_BENCH_HH
#define RIO_BENCH_EMIT_BENCH_HH

#include <string>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace rio::benchio
{

/** An insertion-ordered JSON object built from typed puts. */
class JsonObject
{
  public:
    JsonObject &put(const std::string &key, u64 value);
    JsonObject &put(const std::string &key, int value);
    JsonObject &put(const std::string &key, double value);
    JsonObject &put(const std::string &key, bool value);
    JsonObject &put(const std::string &key, const char *value);
    JsonObject &put(const std::string &key, const std::string &value);
    JsonObject &put(const std::string &key, const JsonObject &value);

    /** Append all fields of @p other (keeping their order). */
    JsonObject &extend(const JsonObject &other);

    /** Render with two-space indentation at @p depth. */
    std::string str(int depth = 0) const;

  private:
    JsonObject &putRaw(const std::string &key, std::string rendered);

    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Write `{"bench": <name>, "schema": <schema>, ...body...}` to
 * @p path. Returns false (and prints to stderr) on I/O failure.
 */
bool writeBenchFile(const std::string &path, const std::string &name,
                    int schema, const JsonObject &body);

} // namespace rio::benchio

#endif // RIO_BENCH_EMIT_BENCH_HH
