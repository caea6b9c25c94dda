/**
 * @file
 * The BENCH_*.json performance trajectory. Every bench binary that
 * contributes a point to the trajectory (ablation_nv, and riobench's
 * result JSON) writes it through writeBenchFile so the files stay
 * uniform: a flat envelope `{"bench": ..., "schema": ..., ...}` with
 * insertion-ordered keys, no host timestamps (so committed artifacts
 * diff meaningfully), and a trailing newline.
 */

#ifndef RIO_BENCH_EMIT_BENCH_HH
#define RIO_BENCH_EMIT_BENCH_HH

#include <string>

#include "support/json.hh"

namespace rio::benchio
{

using JsonObject = support::JsonObject;

/**
 * Write `{"bench": <name>, "schema": <schema>, ...body...}` to
 * @p path. Returns false (and prints to stderr) on I/O failure.
 */
bool writeBenchFile(const std::string &path, const std::string &name,
                    int schema, const JsonObject &body);

} // namespace rio::benchio

#endif // RIO_BENCH_EMIT_BENCH_HH
