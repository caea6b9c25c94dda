/**
 * @file
 * Golden rendering of the one JSON writer. riobench's result files
 * and BENCH_nv.json are its pretty layout byte for byte: nested
 * objects re-indented two spaces per level, extend() keeping
 * insertion order, doubles as %.9g with non-finite values as null,
 * and the escape table every key and string goes through. The JSONL
 * records (trials.jsonl, crashmc.jsonl) are its compact layout.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "support/json.hh"

using namespace rio;
using support::JsonArray;
using support::JsonObject;
using support::jsonEscape;

namespace
{

JsonObject
sample()
{
    JsonObject deeper;
    deeper.put("ok", true);
    JsonObject inner;
    inner.put("count", u64{3});
    inner.put("ratio", 0.125);
    inner.put("deeper", deeper);

    JsonObject tail;
    tail.put("t", std::string("x"));
    tail.put("k\"ey", "v");

    JsonObject outer;
    outer.put("name", "a\"b\\c\n\t\x01 d");
    outer.put("n", -2);
    outer.put("big", std::numeric_limits<u64>::max());
    outer.put("third", 1.0 / 3.0);
    outer.put("whole", 2.0);
    outer.put("tiny", 1.5e-12);
    outer.put("inf", std::numeric_limits<double>::infinity());
    outer.put("nan", std::nan(""));
    outer.put("off", false);
    outer.put("inner", inner);
    outer.put("empty", JsonObject{});
    outer.extend(tail);
    return outer;
}

} // namespace

TEST(JsonObject, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(jsonEscape("plain text"), "plain text");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string_view("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape("caf\xc3\xa9 /"), "caf\xc3\xa9 /");
}

TEST(JsonObject, PrettyRenderingIsPinned)
{
    EXPECT_EQ(sample().str(),
              "{\n"
              "  \"name\": \"a\\\"b\\\\c\\n\\t\\u0001 d\",\n"
              "  \"n\": -2,\n"
              "  \"big\": 18446744073709551615,\n"
              "  \"third\": 0.333333333,\n"
              "  \"whole\": 2,\n"
              "  \"tiny\": 1.5e-12,\n"
              "  \"inf\": null,\n"
              "  \"nan\": null,\n"
              "  \"off\": false,\n"
              "  \"inner\": {\n"
              "    \"count\": 3,\n"
              "    \"ratio\": 0.125,\n"
              "    \"deeper\": {\n"
              "      \"ok\": true\n"
              "    }\n"
              "  },\n"
              "  \"empty\": {},\n"
              "  \"t\": \"x\",\n"
              "  \"k\\\"ey\": \"v\"\n"
              "}");
    EXPECT_EQ(JsonObject{}.str(), "{}");
}

TEST(JsonObject, RenderingAtADepthIndentsEveryLine)
{
    JsonObject inner;
    inner.put("a", 1);
    JsonObject outer;
    outer.put("x", inner);
    outer.put("y", "z");
    EXPECT_EQ(outer.str(1), "{\n"
                            "    \"x\": {\n"
                            "      \"a\": 1\n"
                            "    },\n"
                            "    \"y\": \"z\"\n"
                            "  }");
}

TEST(JsonObject, ArraysAndNullRenderPrettyAndCompact)
{
    JsonObject element;
    element.put("k", u32{1});
    JsonArray inner;
    inner.push(std::string("b"));
    JsonArray list;
    list.push(std::string("a")).push(element).push(JsonArray{}).push(
        inner);

    JsonObject doc;
    doc.put("list", list);
    doc.put("none", nullptr);
    doc.put("s", "a b: c, \"d\" {e}\\");
    doc.put("after", "x");
    EXPECT_EQ(doc.str(), "{\n"
                         "  \"list\": [\n"
                         "    \"a\",\n"
                         "    {\n"
                         "      \"k\": 1\n"
                         "    },\n"
                         "    [],\n"
                         "    [\n"
                         "      \"b\"\n"
                         "    ]\n"
                         "  ],\n"
                         "  \"none\": null,\n"
                         "  \"s\": \"a b: c, \\\"d\\\" {e}\\\\\",\n"
                         "  \"after\": \"x\"\n"
                         "}");
    // Spaces inside strings survive, escaped quotes and a trailing
    // backslash included; nothing else is left between tokens.
    EXPECT_EQ(doc.compact(),
              "{\"list\":[\"a\",{\"k\":1},[],[\"b\"]],\"none\":null,"
              "\"s\":\"a b: c, \\\"d\\\" {e}\\\\\",\"after\":\"x\"}");
    EXPECT_EQ(JsonObject{}.compact(), "{}");
    EXPECT_EQ(JsonArray{}.str(), "[]");
}

TEST(JsonObject, CompactIsThePrettyDocumentOnOneLine)
{
    const std::string line = sample().compact();
    EXPECT_EQ(line,
              "{\"name\":\"a\\\"b\\\\c\\n\\t\\u0001 d\",\"n\":-2,"
              "\"big\":18446744073709551615,\"third\":0.333333333,"
              "\"whole\":2,\"tiny\":1.5e-12,\"inf\":null,\"nan\":null,"
              "\"off\":false,\"inner\":{\"count\":3,\"ratio\":0.125,"
              "\"deeper\":{\"ok\":true}},\"empty\":{},\"t\":\"x\","
              "\"k\\\"ey\":\"v\"}");
    EXPECT_EQ(line.find('\n'), std::string::npos);
}
