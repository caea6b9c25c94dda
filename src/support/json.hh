/**
 * @file
 * The tree's one JSON writer. Every JSON file the project writes
 * (Table 1's trials.jsonl and table1.json, crashmc's records and
 * summary, riolint's reports, riobench's results and BENCH_*.json)
 * is built from these typed, insertion-ordered values, so a key or
 * string is escaped in exactly one place.
 *
 * Pretty rendering puts every member and element on its own line,
 * indented two spaces per level; compact rendering is the same
 * document with no whitespace outside strings, one line per record
 * for JSONL.
 */

#ifndef RIO_SUPPORT_JSON_HH
#define RIO_SUPPORT_JSON_HH

#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace rio::support
{

/** Escape @p text for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/** Write @p text to @p path and print "wrote <path>" on stdout; on
 *  failure say so on stderr and return false. */
bool writeJsonFile(const std::string &path, const std::string &text);

class JsonArray;

/** An insertion-ordered JSON object built from typed puts. */
class JsonObject
{
  public:
    /** Any integer; bool has its own overload. */
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonObject &
    put(const std::string &key, T value)
    {
        return putRaw(key, std::to_string(value));
    }
    /** %.9g; a non-finite value renders as null. */
    JsonObject &put(const std::string &key, double value);
    JsonObject &put(const std::string &key, bool value);
    /** A null @p value renders as JSON null. */
    JsonObject &put(const std::string &key, const char *value);
    JsonObject &put(const std::string &key, const std::string &value);
    JsonObject &put(const std::string &key, const JsonObject &value);
    JsonObject &put(const std::string &key, const JsonArray &value);

    /** Append all fields of @p other (keeping their order). */
    JsonObject &extend(const JsonObject &other);

    /** Render with two-space indentation at @p depth. */
    std::string str(int depth = 0) const;

    /** Render on one line with no whitespace outside strings. */
    std::string compact() const;

  private:
    JsonObject &putRaw(const std::string &key, std::string rendered);

    /** (quoted key and ": ", value rendered at depth 0). */
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** A JSON array, rendered like JsonObject with one element a line. */
class JsonArray
{
  public:
    JsonArray &push(const std::string &value);
    JsonArray &push(const JsonObject &value);
    JsonArray &push(const JsonArray &value);

    /** Render with two-space indentation at @p depth. */
    std::string str(int depth = 0) const;

  private:
    /** ("", element rendered at depth 0). */
    std::vector<std::pair<std::string, std::string>> items_;
};

} // namespace rio::support

#endif // RIO_SUPPORT_JSON_HH
