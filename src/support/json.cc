#include "support/json.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace rio::support
{

namespace
{

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string
quoted(std::string_view text)
{
    return "\"" + jsonEscape(text) + "\"";
}

/**
 * One entry a line between @p open and @p close, each a prefix (an
 * object's quoted key, nothing for an array element) and a value
 * rendered at depth 0 whose lines are re-indented here. A negative
 * @p depth renders as depth 0.
 */
std::string
renderBlock(char open, char close, const Entries &entries, int depth)
{
    const int base = depth < 0 ? 0 : depth;
    const std::string pad(2 * (base + 1), ' ');
    const std::string closePad(2 * base, ' ');
    std::string out(1, open);
    bool first = true;
    for (const auto &[prefix, rendered] : entries) {
        out += first ? "\n" : ",\n";
        first = false;
        out += pad + prefix;
        for (char c : rendered) {
            out += c;
            if (c == '\n')
                out += pad;
        }
    }
    if (!first)
        out += "\n" + closePad;
    out += close;
    return out;
}

} // namespace

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
writeJsonFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    out.close();
    if (out.fail()) {
        std::fprintf(stderr, "failed writing %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

JsonObject &
JsonObject::putRaw(const std::string &key, std::string rendered)
{
    fields_.emplace_back(quoted(key) + ": ", std::move(rendered));
    return *this;
}

JsonObject &
JsonObject::put(const std::string &key, double value)
{
    if (!std::isfinite(value))
        return putRaw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    // %g may emit a bare integer; that is still valid JSON.
    return putRaw(key, buf);
}

JsonObject &
JsonObject::put(const std::string &key, bool value)
{
    return putRaw(key, value ? "true" : "false");
}

JsonObject &
JsonObject::put(const std::string &key, const char *value)
{
    return putRaw(key, value == nullptr ? "null" : quoted(value));
}

JsonObject &
JsonObject::put(const std::string &key, const std::string &value)
{
    return putRaw(key, quoted(value));
}

JsonObject &
JsonObject::put(const std::string &key, const JsonObject &value)
{
    return putRaw(key, value.str());
}

JsonObject &
JsonObject::put(const std::string &key, const JsonArray &value)
{
    return putRaw(key, value.str());
}

JsonObject &
JsonObject::extend(const JsonObject &other)
{
    for (const auto &field : other.fields_)
        fields_.push_back(field);
    return *this;
}

std::string
JsonObject::str(int depth) const
{
    return renderBlock('{', '}', fields_, depth);
}

std::string
JsonObject::compact() const
{
    // The pretty layout adds whitespace only between tokens, and a
    // string holds no raw newline and is the only place a backslash
    // occurs, so dropping spaces and newlines outside strings is it.
    std::string out;
    bool inString = false;
    bool escaped = false;
    for (const char c : str()) {
        if (inString || (c != ' ' && c != '\n'))
            out += c;
        if (escaped)
            escaped = false;
        else if (c == '\\')
            escaped = true;
        else if (c == '"')
            inString = !inString;
    }
    return out;
}

JsonArray &
JsonArray::push(const std::string &value)
{
    items_.emplace_back("", quoted(value));
    return *this;
}

JsonArray &
JsonArray::push(const JsonObject &value)
{
    items_.emplace_back("", value.str());
    return *this;
}

JsonArray &
JsonArray::push(const JsonArray &value)
{
    items_.emplace_back("", value.str());
    return *this;
}

std::string
JsonArray::str(int depth) const
{
    return renderBlock('[', ']', items_, depth);
}

} // namespace rio::support
