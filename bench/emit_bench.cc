#include "emit_bench.hh"

namespace rio::benchio
{

bool
writeBenchFile(const std::string &path, const std::string &name,
               int schema, const JsonObject &body)
{
    JsonObject envelope;
    envelope.put("bench", name);
    envelope.put("schema", schema);
    envelope.extend(body);
    return support::writeJsonFile(path, envelope.str() + "\n");
}

} // namespace rio::benchio
